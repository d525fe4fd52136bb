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
#include <type_traits>
#include <utility>

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

// ---- arena distance matrix -----------------------------------------------
//
// hamming_matrix_arena is one traversal for every tier, masked or not. The
// word dimension is walked in tiles across all planes, so a tile of the
// whole plane set stays L2-resident while every query group reads it.
// Queries go in groups of the widest width the tier has that still fits,
// and the next tile of each plane row is prefetched while the last group
// scores the current one. A tier supplies `Widths`, its group widths
// widest first and ending in 1, and `group<Masked>(index_sequence<J...>,
// q, plane, mask, words, out, planes)`, which adds the distance of each
// query q[J] to one plane tile of `words` words into out[J * planes]. The
// width is a compile-time constant, so the per-query accumulate is a fold
// expression over J: every accumulator index is a constant and stays in a
// register (a rolled loop parks them on the stack and pays a load/add/store
// round trip per plane word). Every cell is an integer sum of per-word
// popcounts, so no tile or group split changes a result.

/// Effective tile width of an arena PlaneSet (0 means untiled).
inline std::size_t arena_tile_words(const PlaneSet& ps) noexcept {
  return ps.tile_words == 0 || ps.tile_words > ps.words ? ps.words
                                                        : ps.tile_words;
}

/// Software-prefetches words [p, p + n), one touch per 64-byte line.
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

/// One word per step: the scalar tier's group, and every tier's words past
/// its last full vector.
struct ScalarArena {
  using Widths = std::index_sequence<4, 1>;

  template <bool Masked, std::size_t... J>
  static void group(std::index_sequence<J...>, const std::uint64_t* const* q,
                    const std::uint64_t* plane, const std::uint64_t* mask,
                    std::size_t words, std::uint32_t* out,
                    std::size_t planes) noexcept {
    std::size_t d[sizeof...(J)] = {};
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t pw = plane[w];
      const std::uint64_t mw = Masked ? mask[w] : ~std::uint64_t{0};
      ((d[J] += word_popcount((q[J][w] ^ pw) & mw)), ...);
    }
    ((out[J * planes] += static_cast<std::uint32_t>(d[J])), ...);
  }
};

/// queries[J] against every plane row of one tile, `tw` words from word
/// t0, prefetching `prefetch_tw` words of the next tile (none when 0).
/// Kept out of line so each group's plane loop has the registers to
/// itself: inlined into the tile loop, AVX-512's 8-query loop held its
/// query pointers in vector registers and on the stack and ran ~15%
/// slower.
template <typename Tier, bool Masked, std::size_t... J>
[[gnu::noinline]] void arena_group_rows(
    std::index_sequence<J...>, const std::uint64_t* const* queries,
    const PlaneSet& ps, std::size_t t0, std::size_t tw,
    std::size_t prefetch_tw, const std::uint64_t* mask,
    std::uint32_t* out) noexcept {
  const std::uint64_t* const qp[] = {(queries[J] + t0)...};
  const std::uint64_t* const tile_mask = Masked ? mask + t0 : nullptr;
  for (std::size_t p = 0; p < ps.planes; ++p) {
    const std::uint64_t* plane = ps.plane(p) + t0;
    if (prefetch_tw != 0) prefetch_words(plane + tw, prefetch_tw);
    Tier::template group<Masked>(std::index_sequence<J...>{}, qp, plane,
                                 tile_mask, tw, out + p, ps.planes);
  }
}

/// The whole arena kernel on `Tier` with the mask ANDed in (Masked) or not.
template <typename Tier, bool Masked, std::size_t... Width>
void arena_matrix_widths(std::index_sequence<Width...>,
                         const std::uint64_t* const* queries,
                         std::size_t num_queries, const PlaneSet& ps,
                         const std::uint64_t* mask,
                         std::uint32_t* out) noexcept {
  const std::size_t np = ps.planes;
  for (std::size_t i = 0; i < num_queries * np; ++i) out[i] = 0;
  if (num_queries == 0 || np == 0 || ps.words == 0) return;
  const std::size_t tile = arena_tile_words(ps);
  for (std::size_t t0 = 0; t0 < ps.words; t0 += tile) {
    const std::size_t tw = std::min(tile, ps.words - t0);
    const std::size_t next_tw = std::min(tile, ps.words - t0 - tw);
    std::size_t q = 0;
    // Scores the next `width` queries against every plane tile, if that
    // many are left.
    const auto group = [&](auto width) {
      constexpr std::size_t nq = decltype(width)::value;
      if (num_queries - q < nq) return false;
      arena_group_rows<Tier, Masked>(std::make_index_sequence<nq>{},
                                     queries + q, ps, t0, tw,
                                     q + nq == num_queries ? next_tw : 0,
                                     mask, out + q * np);
      q += nq;
      return true;
    };
    while (q < num_queries) {
      static_cast<void>(
          (group(std::integral_constant<std::size_t, Width>{}) || ...));
    }
  }
}

/// hamming_matrix_arena on `Tier`: every tier's Ops entry.
template <typename Tier>
void arena_matrix(const std::uint64_t* const* queries, std::size_t num_queries,
                  const PlaneSet& ps, const std::uint64_t* mask,
                  std::uint32_t* out) noexcept {
  if (mask == nullptr) {
    arena_matrix_widths<Tier, false>(typename Tier::Widths{}, queries,
                                     num_queries, ps, mask, out);
  } else {
    arena_matrix_widths<Tier, true>(typename Tier::Widths{}, queries,
                                    num_queries, ps, mask, out);
  }
}

}  // namespace

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
