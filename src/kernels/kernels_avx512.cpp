// AVX-512 kernels: VPOPCNTDQ gives a native per-64-bit-lane popcount, so
// every kernel is a straight-line XOR + VPOPCNTQ + ADD stream over 512-bit
// blocks, with masked loads covering the tail words (masked-out lanes read
// as zero and contribute nothing). This TU is the only place compiled with
// AVX-512 flags; it is reached strictly through the runtime dispatcher.

#include "kernels_internal.hpp"

#if defined(ROBUSTHD_KERNELS_HAVE_AVX512)

#include <immintrin.h>

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

// Arena groups for the shared traversal (arena_matrix in
// kernels_internal.hpp): 8, 4 or 1 queries share each plane vector. Wider
// groups cut both the L2 re-read traffic and the horizontal-reduce
// overhead per plane tile. The arena's 8-word stride makes every full tile
// a whole number of 512-bit vectors, so only the final tile of a plane can
// have a tail, which masked loads read as zeros.

/// acc + popcount((a XOR b) AND m), the AND only when Masked.
template <bool Masked>
inline __m512i add_diff(__m512i acc, __m512i a, __m512i b,
                        __m512i m) noexcept {
  __m512i x = _mm512_xor_si512(a, b);
  if constexpr (Masked) x = _mm512_and_si512(x, m);
  return _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
}

struct Avx512Arena {
  using Widths = std::index_sequence<8, 4, 1>;

  template <bool Masked, std::size_t... J>
  static void group(std::index_sequence<J...>, const std::uint64_t* const* q,
                    const std::uint64_t* plane, const std::uint64_t* mask,
                    std::size_t words, std::uint32_t* out,
                    std::size_t planes) noexcept {
    __m512i acc[sizeof...(J)];
    ((acc[J] = _mm512_setzero_si512()), ...);
    const std::size_t vecs = words / 8;
    for (std::size_t v = 0; v < vecs; ++v) {
      const __m512i pw = _mm512_loadu_si512(plane + 8 * v);
      const __m512i mw = Masked ? _mm512_loadu_si512(mask + 8 * v) : pw;
      ((acc[J] = add_diff<Masked>(acc[J], _mm512_loadu_si512(q[J] + 8 * v),
                                  pw, mw)),
       ...);
    }
    if (words % 8 != 0) {
      const __mmask8 tail = tail_mask(words % 8);
      const std::size_t off = 8 * vecs;
      const __m512i pw = _mm512_maskz_loadu_epi64(tail, plane + off);
      const __m512i mw =
          Masked ? _mm512_maskz_loadu_epi64(tail, mask + off) : pw;
      ((acc[J] = add_diff<Masked>(
            acc[J], _mm512_maskz_loadu_epi64(tail, q[J] + off), pw, mw)),
       ...);
    }
    ((out[J * planes] += static_cast<std::uint32_t>(reduce_add_epi64(acc[J]))),
     ...);
  }
};

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
                         arena_matrix<Avx512Arena>,
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
