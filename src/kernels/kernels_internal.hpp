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
