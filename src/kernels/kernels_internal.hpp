#pragma once
// Internal glue between the dispatch unit and the per-ISA translation
// units. Each ISA lives in its own TU compiled with exactly the flags it
// needs, so the rest of the library keeps the portable baseline ABI and
// the dispatcher can select at runtime without illegal-instruction risk.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

#include "robusthd/kernels/kernels.hpp"

namespace robusthd::kernels::detail {

/// Portable reference kernels (always available; the equivalence oracle).
const Ops& scalar_ops() noexcept;

/// AVX2 Harley–Seal kernels; nullptr when compiled out.
const Ops* avx2_ops() noexcept;

/// AVX-512 VPOPCNTDQ kernels; nullptr when compiled out.
const Ops* avx512_ops() noexcept;

/// Scalar popcount of one word without assuming the POPCNT instruction —
/// shared by the tail paths of every variant (std::popcount lowers to the
/// best sequence each TU's flags permit).
inline std::size_t word_popcount(std::uint64_t w) noexcept {
  return static_cast<std::size_t>(std::popcount(w));
}

/// Applies the first/last word masks in place for the masked-range kernels.
/// n >= 1; when n == 1 both masks intersect.
inline std::uint64_t masked_word(std::uint64_t x, std::size_t i, std::size_t n,
                                 std::uint64_t first_mask,
                                 std::uint64_t last_mask) noexcept {
  if (i == 0) x &= first_mask;
  if (i + 1 == n) x &= last_mask;
  return x;
}

/// bundle_signed over dimensions [begin, dims): the whole scalar kernel
/// (begin == 0), and the partial last word of the SIMD tiers. The adds are
/// unsigned, so a counter wraps exactly as a SIMD lane does.
inline void bundle_signed_from(std::int32_t* counts, const std::uint64_t* bits,
                               std::size_t begin, std::size_t dims,
                               std::int32_t weight) noexcept {
  const auto plus = static_cast<std::uint32_t>(weight);
  const std::uint32_t minus = 0u - plus;
  for (std::size_t i = begin; i < dims; ++i) {
    const bool bit = ((bits[i / 64] >> (i % 64)) & 1u) != 0;
    counts[i] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(counts[i]) + (bit ? plus : minus));
  }
}

/// sign_pack over the words [first_word, ceil(dims / 64)): the whole
/// scalar kernel (first_word == 0), and the partial last word of the SIMD
/// tiers. Each tie-break word is read before its output word is written,
/// so `out` may alias `tie_break`.
inline void sign_pack_from(const std::int32_t* counts, std::size_t first_word,
                           std::size_t dims, const std::uint64_t* tie_break,
                           std::uint64_t* out) noexcept {
  for (std::size_t w = first_word; w * 64 < dims; ++w) {
    const std::size_t n = std::min<std::size_t>(64, dims - w * 64);
    const std::int32_t* c = counts + w * 64;
    std::uint64_t positive = 0, zero = 0;
    for (std::size_t j = 0; j < n; ++j) {
      positive |= static_cast<std::uint64_t>(c[j] > 0) << j;
      zero |= static_cast<std::uint64_t>(c[j] == 0) << j;
    }
    out[w] = positive | (tie_break != nullptr ? tie_break[w] & zero : 0);
  }
}

// ---- majority ------------------------------------------------------------
//
// The majority kernel is one algorithm over a "lane" type: V holds kWords
// consecutive words of a row, and the lane supplies loads, stores, the
// bitwise operations and a carry-save adder. Each ISA's TU instantiates it
// with its own register type, and with ScalarLane for the words past its
// last full vector. These templates have internal linkage, so every TU
// keeps the copy its own flags compiled.

namespace {

/// One 64-bit word per step: the scalar tier, and every tier's tail words.
struct ScalarLane {
  using V = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static V load(const std::uint64_t* p) noexcept { return *p; }
  static void store(std::uint64_t* p, V v) noexcept { *p = v; }
  static V zero() noexcept { return 0; }
  static V all_ones() noexcept { return ~std::uint64_t{0}; }
  static V and_(V a, V b) noexcept { return a & b; }
  static V or_(V a, V b) noexcept { return a | b; }
  static V xor_(V a, V b) noexcept { return a ^ b; }
  /// ~a & b.
  static V andnot(V a, V b) noexcept { return ~a & b; }
  /// Carry-save adder: (h, l) = a + b + c, bit-sliced.
  static void csa(V& h, V& l, V a, V b, V c) noexcept {
    const V u = a ^ b;
    h = (a & b) | (u & c);
    l = u ^ c;
  }
};

/// Counter planes above the four the fold keeps in named registers: enough
/// for any row count a std::size_t holds.
constexpr std::size_t kMajorityUpperPlanes = 60;

/// The majority of n rows over the kWords words at word offset w. The
/// rows are added into a bit-sliced count: ones, twos, fours and eights
/// are its low four bits, and upper[p] is bit p + 4. Sixteen rows at a
/// time go through the Harley–Seal tree of carry-save adders, whose carry
/// of weight 16 ripples into the upper planes; the rows left over ripple
/// in one by one. The count is then compared, bit-sliced from the top,
/// against cut = floor(n / 2): count > cut is a majority, and count ==
/// cut takes `tie` (which the caller zeroes when n is odd, since then it
/// is a minority).
template <typename Lane>
typename Lane::V majority_block(const std::uint64_t* const* rows,
                                std::size_t n, std::size_t w,
                                std::size_t upper_planes, std::size_t cut,
                                typename Lane::V tie) noexcept {
  using V = typename Lane::V;
  const V zero = Lane::zero();
  V ones = zero, twos = zero, fours = zero, eights = zero;
  V upper[kMajorityUpperPlanes];
  for (std::size_t p = 0; p < upper_planes; ++p) upper[p] = zero;
  const auto row = [&](std::size_t r) { return Lane::load(rows[r] + w); };
  // Half adder: plane += carry, and carry becomes the carry out.
  const auto half_add = [](V& plane, V& carry) {
    const V out = Lane::and_(plane, carry);
    plane = Lane::xor_(plane, carry);
    carry = out;
  };
  const auto carry_up = [&](V carry) {
    for (std::size_t p = 0; p < upper_planes; ++p) half_add(upper[p], carry);
  };

  std::size_t r = 0;
  V twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
  for (; r + 16 <= n; r += 16) {
    Lane::csa(twos_a, ones, ones, row(r + 0), row(r + 1));
    Lane::csa(twos_b, ones, ones, row(r + 2), row(r + 3));
    Lane::csa(fours_a, twos, twos, twos_a, twos_b);
    Lane::csa(twos_a, ones, ones, row(r + 4), row(r + 5));
    Lane::csa(twos_b, ones, ones, row(r + 6), row(r + 7));
    Lane::csa(fours_b, twos, twos, twos_a, twos_b);
    Lane::csa(eights_a, fours, fours, fours_a, fours_b);
    Lane::csa(twos_a, ones, ones, row(r + 8), row(r + 9));
    Lane::csa(twos_b, ones, ones, row(r + 10), row(r + 11));
    Lane::csa(fours_a, twos, twos, twos_a, twos_b);
    Lane::csa(twos_a, ones, ones, row(r + 12), row(r + 13));
    Lane::csa(twos_b, ones, ones, row(r + 14), row(r + 15));
    Lane::csa(fours_b, twos, twos, twos_a, twos_b);
    Lane::csa(eights_b, fours, fours, fours_a, fours_b);
    Lane::csa(sixteens, eights, eights, eights_a, eights_b);
    carry_up(sixteens);
  }
  for (; r < n; ++r) {
    V carry = row(r);
    half_add(ones, carry);
    half_add(twos, carry);
    half_add(fours, carry);
    half_add(eights, carry);
    carry_up(carry);
  }

  // count > cut and count == cut, from the most significant plane down.
  V gt = zero;
  V eq = Lane::all_ones();
  const auto compare = [&](V plane, std::size_t p) {
    if ((cut >> p) & 1u) {
      eq = Lane::and_(eq, plane);
    } else {
      gt = Lane::or_(gt, Lane::and_(eq, plane));
      eq = Lane::andnot(plane, eq);
    }
  };
  for (std::size_t p = upper_planes; p-- > 0;) compare(upper[p], p + 4);
  compare(eights, 3);
  compare(fours, 2);
  compare(twos, 1);
  compare(ones, 0);
  return Lane::or_(gt, Lane::and_(eq, tie));
}

/// The whole majority kernel on `Lane`: full vectors of words first, then
/// the words past the last one on ScalarLane, then the bits past dims
/// cleared. Each tie-break word is loaded before its output word is
/// stored, so `out` may alias `tie_break`.
template <typename Lane>
void majority_lanes(const std::uint64_t* const* rows, std::size_t n,
                    std::size_t dims, const std::uint64_t* tie_break,
                    std::uint64_t* out) noexcept {
  const std::size_t words = (dims + 63) / 64;
  // The count is at most n, so n >> 4 bounds what the upper planes hold.
  const auto upper_planes = static_cast<std::size_t>(std::bit_width(n >> 4));
  const std::size_t cut = n / 2;
  const bool ties = tie_break != nullptr && n % 2 == 0;
  std::size_t w = 0;
  for (; w + Lane::kWords <= words; w += Lane::kWords) {
    const auto tie = ties ? Lane::load(tie_break + w) : Lane::zero();
    Lane::store(out + w,
                majority_block<Lane>(rows, n, w, upper_planes, cut, tie));
  }
  for (; w < words; ++w) {
    const std::uint64_t tie = ties ? tie_break[w] : 0;
    out[w] = majority_block<ScalarLane>(rows, n, w, upper_planes, cut, tie);
  }
  if (dims % 64 != 0) out[words - 1] &= (std::uint64_t{1} << (dims % 64)) - 1;
}

}  // namespace

/// Effective tile width of an arena PlaneSet (0 means untiled).
inline std::size_t arena_tile_words(const PlaneSet& ps) noexcept {
  return ps.tile_words == 0 || ps.tile_words > ps.words ? ps.words
                                                        : ps.tile_words;
}

/// Software-prefetches words [p, p + n), one touch per 64-byte line. Used
/// by the arena kernels to pull the next tile of a plane row into cache
/// while the current tile is being consumed.
inline void prefetch_words(const std::uint64_t* p, std::size_t n) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  for (std::size_t i = 0; i < n; i += 8) {
    __builtin_prefetch(p + i, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)p;
  (void)n;
#endif
}

#if defined(__SSE4_2__)
/// CRC32C on the SSE4.2 crc32 instruction: one 8-byte step per word, then
/// the byte tail. The instruction implements exactly the reflected
/// Castagnoli polynomial of the scalar table, so values are identical.
/// Compiled into the TUs built with SSE4.2 enabled (-mavx2 and the
/// AVX-512 flags imply it).
inline std::uint32_t crc32c_sse42(const void* data, std::size_t n,
                                  std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace robusthd::kernels::detail
