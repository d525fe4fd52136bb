// AVX2 kernels: Harley–Seal carry-save popcount (Muła/Kurz/Lemire) for the
// long reductions, PSHUFB nibble popcount for the blocked arena matrix
// kernel.
// This TU is the only place compiled with -mavx2; it is reached strictly
// through the runtime dispatcher, so building it never makes the library
// require AVX2 at load time.

#include "kernels_internal.hpp"

#if defined(ROBUSTHD_KERNELS_HAVE_AVX2)

#include <immintrin.h>

namespace robusthd::kernels::detail {

namespace {

/// Per-64-bit-lane popcount of a 256-bit vector (PSHUFB nibble LUT + SAD).
inline __m256i popcount256(__m256i v) noexcept {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/// Carry-save adder: (h, l) = a + b + c in bit-sliced form.
inline void csa(__m256i& h, __m256i& l, __m256i a, __m256i b,
                __m256i c) noexcept {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

inline std::uint64_t hsum256(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// Harley–Seal reduction over `vecs` 256-bit blocks produced by `load`;
/// `load(i)` yields block i. Fusing the XOR into the loader makes the same
/// routine serve popcount (identity load) and Hamming (xor load).
template <typename Load>
std::uint64_t harley_seal(Load load, std::size_t vecs) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  __m256i total = zero, ones = zero, twos = zero, fours = zero,
          eights = zero;
  __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;

  std::size_t i = 0;
  for (; i + 16 <= vecs; i += 16) {
    csa(twos_a, ones, ones, load(i + 0), load(i + 1));
    csa(twos_b, ones, ones, load(i + 2), load(i + 3));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, load(i + 4), load(i + 5));
    csa(twos_b, ones, ones, load(i + 6), load(i + 7));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_a, fours, fours, fours_a, fours_b);
    csa(twos_a, ones, ones, load(i + 8), load(i + 9));
    csa(twos_b, ones, ones, load(i + 10), load(i + 11));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, load(i + 12), load(i + 13));
    csa(twos_b, ones, ones, load(i + 14), load(i + 15));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_b, fours, fours, fours_a, fours_b);
    csa(sixteens, eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, popcount256(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(eights), 3));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(twos), 1));
  total = _mm256_add_epi64(total, popcount256(ones));
  for (; i < vecs; ++i) total = _mm256_add_epi64(total, popcount256(load(i)));
  return hsum256(total);
}

std::size_t popcount_avx2(const std::uint64_t* words, std::size_t n) {
  const std::size_t vecs = n / 4;
  std::uint64_t total = harley_seal(
      [&](std::size_t i) {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + 4 * i));
      },
      vecs);
  for (std::size_t i = vecs * 4; i < n; ++i) total += word_popcount(words[i]);
  return static_cast<std::size_t>(total);
}

std::size_t hamming_avx2(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) {
  const std::size_t vecs = n / 4;
  std::uint64_t total = harley_seal(
      [&](std::size_t i) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + 4 * i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + 4 * i));
        return _mm256_xor_si256(va, vb);
      },
      vecs);
  for (std::size_t i = vecs * 4; i < n; ++i) {
    total += word_popcount(a[i] ^ b[i]);
  }
  return static_cast<std::size_t>(total);
}

// Arena groups for the shared traversal (arena_matrix in
// kernels_internal.hpp). Four queries share each plane vector, with a
// PSHUFB popcount per query; a lone query takes the Harley–Seal reduction,
// as hamming does. The words past the last full vector run the scalar
// group. The arena's plane rows are 64-byte aligned but queries may be
// arbitrary, so every load is loadu; on AVX2 hardware loadu of an aligned
// address costs the same.
inline __m256i load256(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// (a XOR b) AND m, the AND only when Masked.
template <bool Masked>
inline __m256i diff256(__m256i a, __m256i b, __m256i m) noexcept {
  const __m256i x = _mm256_xor_si256(a, b);
  return Masked ? _mm256_and_si256(x, m) : x;
}

struct Avx2Arena {
  using Widths = std::index_sequence<4, 1>;

  template <bool Masked, std::size_t... J>
  static void group(std::index_sequence<J...>, const std::uint64_t* const* q,
                    const std::uint64_t* plane, const std::uint64_t* mask,
                    std::size_t words, std::uint32_t* out,
                    std::size_t planes) noexcept {
    const std::size_t vecs = words / 4;
    if constexpr (sizeof...(J) == 1) {
      out[0] += static_cast<std::uint32_t>(harley_seal(
          [&](std::size_t v) {
            const __m256i pw = load256(plane + 4 * v);
            const __m256i mw = Masked ? load256(mask + 4 * v) : pw;
            return diff256<Masked>(load256(q[0] + 4 * v), pw, mw);
          },
          vecs));
    } else {
      __m256i acc[sizeof...(J)];
      ((acc[J] = _mm256_setzero_si256()), ...);
      for (std::size_t v = 0; v < vecs; ++v) {
        const __m256i pw = load256(plane + 4 * v);
        const __m256i mw = Masked ? load256(mask + 4 * v) : pw;
        ((acc[J] = _mm256_add_epi64(
              acc[J], popcount256(diff256<Masked>(load256(q[J] + 4 * v), pw,
                                                  mw)))),
         ...);
      }
      ((out[J * planes] += static_cast<std::uint32_t>(hsum256(acc[J]))), ...);
    }
    const std::size_t done = 4 * vecs;
    if (done < words) {
      const std::uint64_t* rest[] = {(q[J] + done)...};
      ScalarArena::group<Masked>(std::index_sequence<J...>{}, rest,
                                 plane + done, Masked ? mask + done : nullptr,
                                 words - done, out, planes);
    }
  }
};

// Counter kernels, 8 x int32 lanes per vector. Bundling broadcasts each
// 32-bit half of a bit word and shifts bit 8g + j into lane j's sign bit
// (one variable shift per group g), which blendv reads to pick +weight or
// -weight; signs are a compare and a movemask per 8 dimensions. The
// partial last word, if any, runs the scalar reference. The fixed-count
// inner loops are unrolled by pragma, as in kernels_avx512.cpp: GCC does
// it unasked only at -O3.
void bundle_signed_avx2(std::int32_t* counts, const std::uint64_t* bits,
                        std::size_t dims, std::int32_t weight) {
  const __m256i plus_i = _mm256_set1_epi32(weight);
  const __m256 plus = _mm256_castsi256_ps(plus_i);
  const __m256 minus = _mm256_castsi256_ps(
      _mm256_sub_epi32(_mm256_setzero_si256(), plus_i));
  const __m256i lane_shift = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
  const std::size_t full_words = dims / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
#pragma GCC unroll 2
    for (std::size_t h = 0; h < 2; ++h) {
      const __m256i half = _mm256_set1_epi32(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(bits[w] >> (32 * h))));
      std::int32_t* c = counts + 64 * w + 32 * h;
#pragma GCC unroll 4
      for (std::size_t g = 0; g < 4; ++g) {
        const __m256i shift = _mm256_sub_epi32(
            lane_shift, _mm256_set1_epi32(static_cast<std::int32_t>(8 * g)));
        const __m256 set = _mm256_castsi256_ps(_mm256_sllv_epi32(half, shift));
        const __m256i step =
            _mm256_castps_si256(_mm256_blendv_ps(minus, plus, set));
        auto* p = reinterpret_cast<__m256i*>(c + 8 * g);
        _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), step));
      }
    }
  }
  bundle_signed_from(counts, bits, full_words * 64, dims, weight);
}

void sign_pack_avx2(const std::int32_t* counts, std::size_t dims,
                    const std::uint64_t* tie_break, std::uint64_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const auto lanes = [](__m256i m) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m))));
  };
  const std::size_t full_words = dims / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const std::int32_t* c = counts + 64 * w;
    std::uint64_t positive = 0, ties = 0;
#pragma GCC unroll 8
    for (std::size_t g = 0; g < 8; ++g) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 8 * g));
      positive |= lanes(_mm256_cmpgt_epi32(v, zero)) << (8 * g);
      ties |= lanes(_mm256_cmpeq_epi32(v, zero)) << (8 * g);
    }
    out[w] = positive | (tie_break != nullptr ? tie_break[w] & ties : 0);
  }
  sign_pack_from(counts, full_words, dims, tie_break, out);
}

// Majority: one 256-bit vector (4 words) of every row per fold, with the
// Harley–Seal adder above; see majority_block.
struct Avx2Lane {
  using V = __m256i;
  static constexpr std::size_t kWords = 4;
  static V load(const std::uint64_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V all_ones() noexcept { return _mm256_set1_epi64x(-1); }
  static V and_(V a, V b) noexcept { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) noexcept { return _mm256_or_si256(a, b); }
  static V xor_(V a, V b) noexcept { return _mm256_xor_si256(a, b); }
  static V andnot(V a, V b) noexcept { return _mm256_andnot_si256(a, b); }
  static void csa(V& h, V& l, V a, V b, V c) noexcept {
    detail::csa(h, l, a, b, c);
  }
};

void majority_avx2(const std::uint64_t* const* rows, std::size_t n,
                   std::size_t dims, const std::uint64_t* tie_break,
                   std::uint64_t* out) {
  majority_lanes<Avx2Lane>(rows, n, dims, tie_break, out);
}

constexpr Ops kAvx2Ops{popcount_avx2,
                       hamming_avx2,
                       arena_matrix<Avx2Arena>,
                       bundle_signed_avx2,
                       sign_pack_avx2,
                       majority_avx2,
                       crc32c_sse42};

}  // namespace

const Ops* avx2_ops() noexcept { return &kAvx2Ops; }

}  // namespace robusthd::kernels::detail

#else  // ROBUSTHD_KERNELS_HAVE_AVX2

namespace robusthd::kernels::detail {

// Compiled out (toolchain lacks AVX2 support): the dispatcher sees no table.
const Ops* avx2_ops() noexcept { return nullptr; }

}  // namespace robusthd::kernels::detail

#endif  // ROBUSTHD_KERNELS_HAVE_AVX2
