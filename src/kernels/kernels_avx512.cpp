// AVX-512 kernels: VPOPCNTDQ gives a native per-64-bit-lane popcount, so
// every kernel is a straight-line XOR + VPOPCNTQ + ADD stream over 512-bit
// blocks, with masked loads covering the tail words (masked-out lanes read
// as zero and contribute nothing). This TU is the only place compiled with
// AVX-512 flags; it is reached strictly through the runtime dispatcher.

#include "kernels_internal.hpp"

#if defined(ROBUSTHD_KERNELS_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <utility>

namespace robusthd::kernels::detail {

namespace {

inline __mmask8 tail_mask(std::size_t remaining) noexcept {
  return static_cast<__mmask8>((1u << remaining) - 1u);
}

/// Sum of the eight 64-bit lanes. GCC's _mm512_reduce_add_epi64, like
/// every unmasked 512-bit extract or cast, starts from
/// _mm256_undefined_si256, whose `__Y = __Y` trips -Wuninitialized at -O2.
/// The zero-masked extracts start from zero; with a full mask they are
/// the same instructions.
inline std::uint64_t reduce_add_epi64(__m512i v) noexcept {
  const __m256i sum4 =
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xFF, v, 0),
                       _mm512_maskz_extracti64x4_epi64(0xFF, v, 1));
  const __m128i sum2 = _mm_add_epi64(_mm256_castsi256_si128(sum4),
                                     _mm256_extracti128_si256(sum4, 1));
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(sum2, _mm_unpackhi_epi64(sum2, sum2))));
}

std::size_t popcount_avx512(const std::uint64_t* words, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(words + i)));
  }
  if (i < n) {
    const __m512i v = _mm512_maskz_loadu_epi64(tail_mask(n - i), words + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<std::size_t>(reduce_add_epi64(acc));
}

std::size_t hamming_avx512(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  // Two independent accumulators hide the VPOPCNTQ latency.
  __m512i acc2 = _mm512_setzero_si512();
  for (; i + 16 <= n; i += 16) {
    const __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i));
    const __m512i x1 = _mm512_xor_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x0));
    acc2 = _mm512_add_epi64(acc2, _mm512_popcnt_epi64(x1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    const __m512i x = _mm512_xor_si512(_mm512_maskz_loadu_epi64(m, a + i),
                                       _mm512_maskz_loadu_epi64(m, b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  acc = _mm512_add_epi64(acc, acc2);
  return static_cast<std::size_t>(reduce_add_epi64(acc));
}

std::size_t hamming_masked_avx512(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t n,
                                  std::uint64_t first_mask,
                                  std::uint64_t last_mask) {
  if (n == 0) return 0;
  if (n == 1) return word_popcount((a[0] ^ b[0]) & first_mask & last_mask);
  const std::size_t total = word_popcount((a[0] ^ b[0]) & first_mask) +
                            word_popcount((a[n - 1] ^ b[n - 1]) & last_mask);
  return total + hamming_avx512(a + 1, b + 1, n - 2);
}

// Arena kernels: stride-addressed plane rows, tile-outer traversal so one
// tile of every plane stays L2-resident across query groups, next-tile
// software prefetch on the final query group of each tile. The arena's
// 8-word stride means every full tile is a whole number of 512-bit
// vectors; only the final tile of a plane can have a masked tail.
//
// Query groups have a compile-time width (8, rimmed by 4 and 1): one
// plane-word load serves NQ queries, and each plane chunk is visited
// num_queries / NQ times per tile — wider groups cut both the L2 re-read
// traffic and the horizontal-reduce overhead per chunk. The per-query
// accumulate is a fold expression over an index pack, not a runtime
// loop: every acc[] index is a constant, so the accumulators scalarize
// into zmm registers (a rolled loop parks them on the stack and pays a
// load/add/store round trip per plane word). Group width never changes
// results: the per-cell sums are exact integer popcounts.
template <std::size_t NQ, std::size_t... J>
void arena_group_avx512_impl(std::index_sequence<J...>,
                             const std::uint64_t* const* q,
                             const std::uint64_t* plane, std::size_t vecs,
                             __mmask8 tail, std::uint32_t* out,
                             std::size_t np) {
  __m512i acc[NQ];
  ((acc[J] = _mm512_setzero_si512()), ...);
  for (std::size_t v = 0; v < vecs; ++v) {
    const __m512i pw = _mm512_loadu_si512(plane + 8 * v);
    ((acc[J] = _mm512_add_epi64(
          acc[J], _mm512_popcnt_epi64(_mm512_xor_si512(
                      _mm512_loadu_si512(q[J] + 8 * v), pw)))),
     ...);
  }
  if (tail) {
    const std::size_t off = vecs * 8;
    const __m512i pw = _mm512_maskz_loadu_epi64(tail, plane + off);
    ((acc[J] = _mm512_add_epi64(
          acc[J], _mm512_popcnt_epi64(_mm512_xor_si512(
                      _mm512_maskz_loadu_epi64(tail, q[J] + off), pw)))),
     ...);
  }
  ((out[J * np] +=
    static_cast<std::uint32_t>(reduce_add_epi64(acc[J]))),
   ...);
}

template <std::size_t NQ>
void arena_group_avx512(const std::uint64_t* const* q,
                        const std::uint64_t* plane, std::size_t vecs,
                        __mmask8 tail, std::uint32_t* out, std::size_t np) {
  arena_group_avx512_impl<NQ>(std::make_index_sequence<NQ>{}, q, plane, vecs,
                              tail, out, np);
}

template <std::size_t NQ, std::size_t... J>
void arena_group_masked_avx512_impl(std::index_sequence<J...>,
                                    const std::uint64_t* const* q,
                                    const std::uint64_t* plane,
                                    const std::uint64_t* mask,
                                    std::size_t vecs, __mmask8 tail,
                                    std::uint32_t* out, std::size_t np) {
  __m512i acc[NQ];
  ((acc[J] = _mm512_setzero_si512()), ...);
  for (std::size_t v = 0; v < vecs; ++v) {
    const __m512i pw = _mm512_loadu_si512(plane + 8 * v);
    const __m512i mw = _mm512_loadu_si512(mask + 8 * v);
    ((acc[J] = _mm512_add_epi64(
          acc[J],
          _mm512_popcnt_epi64(_mm512_and_si512(
              _mm512_xor_si512(_mm512_loadu_si512(q[J] + 8 * v), pw), mw)))),
     ...);
  }
  if (tail) {
    const std::size_t off = vecs * 8;
    const __m512i pw = _mm512_maskz_loadu_epi64(tail, plane + off);
    const __m512i mw = _mm512_maskz_loadu_epi64(tail, mask + off);
    ((acc[J] = _mm512_add_epi64(
          acc[J], _mm512_popcnt_epi64(_mm512_and_si512(
                      _mm512_xor_si512(
                          _mm512_maskz_loadu_epi64(tail, q[J] + off), pw),
                      mw)))),
     ...);
  }
  ((out[J * np] +=
    static_cast<std::uint32_t>(reduce_add_epi64(acc[J]))),
   ...);
}

template <std::size_t NQ>
void arena_group_masked_avx512(const std::uint64_t* const* q,
                               const std::uint64_t* plane,
                               const std::uint64_t* mask, std::size_t vecs,
                               __mmask8 tail, std::uint32_t* out,
                               std::size_t np) {
  arena_group_masked_avx512_impl<NQ>(std::make_index_sequence<NQ>{}, q, plane,
                                     mask, vecs, tail, out, np);
}

void hamming_matrix_arena_avx512(const std::uint64_t* const* queries,
                                 std::size_t num_queries, const PlaneSet& ps,
                                 std::uint32_t* out) {
  const std::size_t np = ps.planes;
  for (std::size_t i = 0; i < num_queries * np; ++i) out[i] = 0;
  if (num_queries == 0 || np == 0 || ps.words == 0) return;
  const std::size_t tile = arena_tile_words(ps);
  for (std::size_t t0 = 0; t0 < ps.words; t0 += tile) {
    const std::size_t tw = std::min(tile, ps.words - t0);
    const bool has_next = t0 + tw < ps.words;
    const std::size_t vecs = tw / 8;
    const __mmask8 tail =
        tw % 8 != 0 ? tail_mask(tw % 8) : static_cast<__mmask8>(0);
    std::size_t q = 0;
    while (q < num_queries) {
      const std::size_t group =
          num_queries - q >= 8 ? 8 : (num_queries - q >= 4 ? 4 : 1);
      const bool last_group = q + group >= num_queries;
      const std::uint64_t* qp[8];
      for (std::size_t j = 0; j < group; ++j) qp[j] = queries[q + j] + t0;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint64_t* plane = ps.base + p * ps.stride_words + t0;
        if (last_group && has_next) {
          prefetch_words(plane + tw, std::min(tile, ps.words - t0 - tw));
        }
        std::uint32_t* cell = out + q * np + p;
        if (group == 8) {
          arena_group_avx512<8>(qp, plane, vecs, tail, cell, np);
        } else if (group == 4) {
          arena_group_avx512<4>(qp, plane, vecs, tail, cell, np);
        } else {
          arena_group_avx512<1>(qp, plane, vecs, tail, cell, np);
        }
      }
      q += group;
    }
  }
}

void hamming_matrix_arena_masked_avx512(const std::uint64_t* const* queries,
                                        std::size_t num_queries,
                                        const PlaneSet& ps,
                                        const std::uint64_t* mask,
                                        std::uint32_t* out) {
  const std::size_t np = ps.planes;
  for (std::size_t i = 0; i < num_queries * np; ++i) out[i] = 0;
  if (num_queries == 0 || np == 0 || ps.words == 0) return;
  const std::size_t tile = arena_tile_words(ps);
  for (std::size_t t0 = 0; t0 < ps.words; t0 += tile) {
    const std::size_t tw = std::min(tile, ps.words - t0);
    const bool has_next = t0 + tw < ps.words;
    const std::uint64_t* mw_base = mask + t0;
    const std::size_t vecs = tw / 8;
    const __mmask8 tail =
        tw % 8 != 0 ? tail_mask(tw % 8) : static_cast<__mmask8>(0);
    std::size_t q = 0;
    while (q < num_queries) {
      const std::size_t group =
          num_queries - q >= 8 ? 8 : (num_queries - q >= 4 ? 4 : 1);
      const bool last_group = q + group >= num_queries;
      const std::uint64_t* qp[8];
      for (std::size_t j = 0; j < group; ++j) qp[j] = queries[q + j] + t0;
      for (std::size_t p = 0; p < np; ++p) {
        const std::uint64_t* plane = ps.base + p * ps.stride_words + t0;
        if (last_group && has_next) {
          prefetch_words(plane + tw, std::min(tile, ps.words - t0 - tw));
        }
        std::uint32_t* cell = out + q * np + p;
        if (group == 8) {
          arena_group_masked_avx512<8>(qp, plane, mw_base, vecs, tail, cell,
                                       np);
        } else if (group == 4) {
          arena_group_masked_avx512<4>(qp, plane, mw_base, vecs, tail, cell,
                                       np);
        } else {
          arena_group_masked_avx512<1>(qp, plane, mw_base, vecs, tail, cell,
                                       np);
        }
      }
      q += group;
    }
  }
}

// Counter kernels: a 16-bit slice of a bit word is exactly the lane mask
// of one 16 x int32 vector, so a whole word of dimensions is four blends
// (bundling) or four compares (signs). The partial last word, if any,
// runs the scalar reference. The four-slice loops are unrolled by pragma:
// GCC unrolls them only at -O3, and at -O2 (RelWithDebInfo) the rolled
// loop's variable shifts made sign_pack about three times slower, by an
// amount that moved with where the linker placed the code.
void bundle_signed_avx512(std::int32_t* counts, const std::uint64_t* bits,
                          std::size_t dims, std::int32_t weight) {
  const __m512i plus = _mm512_set1_epi32(weight);
  const __m512i minus = _mm512_sub_epi32(_mm512_setzero_si512(), plus);
  const std::size_t full_words = dims / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::uint64_t word = bits[w];
    std::int32_t* c = counts + 64 * w;
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      const auto set = static_cast<__mmask16>(word >> (16 * q));
      const __m512i step = _mm512_mask_blend_epi32(set, minus, plus);
      _mm512_storeu_si512(
          c + 16 * q, _mm512_add_epi32(_mm512_loadu_si512(c + 16 * q), step));
    }
  }
  bundle_signed_from(counts, bits, full_words * 64, dims, weight);
}

void sign_pack_avx512(const std::int32_t* counts, std::size_t dims,
                      const std::uint64_t* tie_break, std::uint64_t* out) {
  const __m512i zero = _mm512_setzero_si512();
  const std::size_t full_words = dims / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::int32_t* c = counts + 64 * w;
    std::uint64_t positive = 0, ties = 0;
#pragma GCC unroll 4
    for (std::size_t q = 0; q < 4; ++q) {
      const __m512i v = _mm512_loadu_si512(c + 16 * q);
      positive |= static_cast<std::uint64_t>(_mm512_cmpgt_epi32_mask(v, zero))
                  << (16 * q);
      ties |= static_cast<std::uint64_t>(_mm512_cmpeq_epi32_mask(v, zero))
              << (16 * q);
    }
    out[w] = positive | (tie_break != nullptr ? tie_break[w] & ties : 0);
  }
  sign_pack_from(counts, full_words, dims, tie_break, out);
}

// Majority: one 512-bit vector (8 words, a cache line) of every row per
// fold. Each carry-save adder is two ternary-logic instructions: the
// three-way XOR (0x96) and the three-way majority (0xE8).
struct Avx512Lane {
  using V = __m512i;
  static constexpr std::size_t kWords = 8;
  static V load(const std::uint64_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static void store(std::uint64_t* p, V v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static V zero() noexcept { return _mm512_setzero_si512(); }
  static V all_ones() noexcept { return _mm512_set1_epi64(-1); }
  static V and_(V a, V b) noexcept { return _mm512_and_si512(a, b); }
  static V or_(V a, V b) noexcept { return _mm512_or_si512(a, b); }
  static V xor_(V a, V b) noexcept { return _mm512_xor_si512(a, b); }
  /// ~a & b as ternary logic (0x0C ignores the third operand): GCC's
  /// _mm512_andnot_si512 starts from _mm512_undefined_epi32 and warns,
  /// like the extracts reduce_add_epi64 avoids.
  static V andnot(V a, V b) noexcept {
    return _mm512_ternarylogic_epi64(a, b, b, 0x0C);
  }
  static void csa(V& h, V& l, V a, V b, V c) noexcept {
    h = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
    l = _mm512_ternarylogic_epi64(a, b, c, 0x96);
  }
};

void majority_avx512(const std::uint64_t* const* rows, std::size_t n,
                     std::size_t dims, const std::uint64_t* tie_break,
                     std::uint64_t* out) {
  majority_lanes<Avx512Lane>(rows, n, dims, tie_break, out);
}

constexpr Ops kAvx512Ops{popcount_avx512,
                         hamming_avx512,
                         hamming_masked_avx512,
                         hamming_matrix_arena_avx512,
                         hamming_matrix_arena_masked_avx512,
                         bundle_signed_avx512,
                         sign_pack_avx512,
                         majority_avx512,
                         crc32c_sse42};

}  // namespace

const Ops* avx512_ops() noexcept { return &kAvx512Ops; }

}  // namespace robusthd::kernels::detail

#else  // ROBUSTHD_KERNELS_HAVE_AVX512

namespace robusthd::kernels::detail {

// Compiled out (toolchain lacks AVX-512 support): dispatcher sees no table.
const Ops* avx512_ops() noexcept { return nullptr; }

}  // namespace robusthd::kernels::detail

#endif  // ROBUSTHD_KERNELS_HAVE_AVX512
