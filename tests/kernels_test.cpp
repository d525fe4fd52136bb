// Equivalence tests for the runtime-dispatched SIMD kernel layer.
//
// Every available ISA tier (scalar / AVX2 / AVX-512) is checked bit-for-bit
// against a naive per-word reference on awkward dimensions (sub-word,
// exactly one word, word+1, and the paper-scale 10k), on adversarial word
// patterns (all-zeros, all-ones), and — for the arena distance-matrix
// kernels — at query counts that hit every query-group rim and at tile
// budgets that split a plane into several tiles, ragged last tile
// included; the class-counter kernels (bundle_signed, sign_pack) against
// a per-dimension reference around the 8- and 16-lane widths. The
// higher layers that were rewired onto the kernels (BinVec rotation and
// ranged Hamming, batch scoring, zero-allocation encoding, the crossbar
// cost cross-check) are then held to the same standard: bit-identical to
// their scalar-era semantics.
#include "robusthd/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "robusthd/hv/accumulator.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/hv/encoder.hpp"
#include "robusthd/mem/plane_arena.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/pim/gpu_ref.hpp"
#include "robusthd/pim/hdc_kernels.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd {
namespace {

constexpr std::array<kernels::Isa, 3> kAllIsas = {
    kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512};

// ---- naive references (independent of the kernel layer) -----------------

std::size_t ref_popcount(const std::uint64_t* w, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return total;
}

std::size_t ref_hamming(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

std::vector<std::uint64_t> random_words(std::size_t n, util::Xoshiro256& rng) {
  std::vector<std::uint64_t> w(n);
  rng.fill(w);
  return w;
}

/// Word counts covering dims 63, 64, 65 and 10000, plus blocks around the
/// SIMD vector widths (4 and 8 words) and the unrolled 16-vector AVX2 body.
const std::vector<std::size_t>& word_sizes() {
  static const std::vector<std::size_t> sizes = {1,  2,  3,  4,  5,  7, 8,
                                                 9,  15, 16, 17, 31, 32, 33,
                                                 63, 64, 65, 157};
  return sizes;
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  ASSERT_NE(kernels::ops_for(kernels::Isa::kScalar), nullptr);
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kScalar));
  EXPECT_STREQ(kernels::isa_name(kernels::Isa::kScalar), "scalar");
  // The active table is one of the three tiers and is non-null.
  EXPECT_NE(kernels::ops_for(kernels::active_isa()), nullptr);
}

TEST(KernelEquivalence, PopcountAllIsas) {
  util::Xoshiro256 rng(0x9c1);
  for (const auto isa : kAllIsas) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    for (const std::size_t n : word_sizes()) {
      const auto w = random_words(n, rng);
      EXPECT_EQ(ops->popcount(w.data(), n), ref_popcount(w.data(), n))
          << kernels::isa_name(isa) << " n=" << n;
      const std::vector<std::uint64_t> ones(n, ~0ULL);
      const std::vector<std::uint64_t> zeros(n, 0ULL);
      EXPECT_EQ(ops->popcount(ones.data(), n), n * 64);
      EXPECT_EQ(ops->popcount(zeros.data(), n), 0u);
    }
    EXPECT_EQ(ops->popcount(nullptr, 0), 0u) << kernels::isa_name(isa);
  }
}

TEST(KernelEquivalence, HammingAllIsas) {
  util::Xoshiro256 rng(0xbeef);
  for (const auto isa : kAllIsas) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    for (const std::size_t n : word_sizes()) {
      const auto a = random_words(n, rng);
      const auto b = random_words(n, rng);
      EXPECT_EQ(ops->hamming(a.data(), b.data(), n),
                ref_hamming(a.data(), b.data(), n))
          << kernels::isa_name(isa) << " n=" << n;
      const std::vector<std::uint64_t> ones(n, ~0ULL);
      const std::vector<std::uint64_t> zeros(n, 0ULL);
      EXPECT_EQ(ops->hamming(ones.data(), zeros.data(), n), n * 64);
      EXPECT_EQ(ops->hamming(a.data(), a.data(), n), 0u);
    }
    EXPECT_EQ(ops->hamming(nullptr, nullptr, 0), 0u);
  }
}

/// Tile budgets for the arena matrix tests: the default (one tile covers
/// a plane of up to 512 words), 4 KiB and 512 B. At D = 10,000 with 5
/// planes the small budgets give 2 tiles of 96 words (the second ragged)
/// and 20 tiles of 8 words, so tile offsets, next-tile prefetch and a
/// ragged last tile all run.
constexpr std::array<std::size_t, 3> kTileBytes = {std::size_t{1} << 20,
                                                   4096, 512};

mem::PlaneArena random_arena(std::size_t planes, std::size_t dim,
                             std::size_t tile_bytes, util::Xoshiro256& rng) {
  mem::PlaneArenaConfig config;
  config.l2_tile_bytes = tile_bytes;
  config.hugepages = false;
  mem::PlaneArena arena(planes, dim, config);
  for (std::size_t p = 0; p < planes; ++p) {
    arena.store_plane(p, hv::BinVec::random(dim, rng));
  }
  return arena;
}

/// Runs `check(ops, arena, queries)` over every ISA, plane dimension,
/// plane count, tile budget and query count the matrix tests cover.
template <typename Check>
void for_each_arena_shape(util::Xoshiro256& rng, Check&& check) {
  for (const auto isa : kAllIsas) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    for (const std::size_t dim : {64, 65, 300, 1088, 10000}) {
      for (const std::size_t planes : {1, 5, 11}) {
        for (const std::size_t tile_bytes : kTileBytes) {
          const auto arena = random_arena(planes, dim, tile_bytes, rng);
          // 1, 4 and 13 queries: the single-query rim, one exact block,
          // and the 8-, 4- and 1-query rims together.
          for (const std::size_t nq : {1, 4, 13}) {
            std::vector<std::vector<std::uint64_t>> queries;
            for (std::size_t i = 0; i < nq; ++i) {
              queries.push_back(random_words(arena.words(), rng));
            }
            check(*ops, arena, queries);
          }
        }
      }
    }
  }
}

std::string shape_name(const mem::PlaneArena& arena, std::size_t nq) {
  return "dim=" + std::to_string(arena.dimension()) +
         " planes=" + std::to_string(arena.num_planes()) +
         " tile=" + std::to_string(arena.tile_words()) +
         " tiles=" + std::to_string(arena.num_tiles()) +
         " queries=" + std::to_string(nq);
}

TEST(KernelEquivalence, HammingMatrixAllIsas) {
  util::Xoshiro256 rng(0x7ab1e);
  for_each_arena_shape(rng, [](const kernels::Ops& ops,
                               const mem::PlaneArena& arena,
                               const auto& queries) {
    std::vector<const std::uint64_t*> qp;
    for (const auto& q : queries) qp.push_back(q.data());
    const std::size_t np = arena.num_planes();
    std::vector<std::uint32_t> out(qp.size() * np, 0xdeadbeef);
    ops.hamming_matrix_arena(qp.data(), qp.size(), arena.view(), nullptr,
                             out.data());
    for (std::size_t q = 0; q < qp.size(); ++q) {
      for (std::size_t p = 0; p < np; ++p) {
        ASSERT_EQ(out[q * np + p],
                  ref_hamming(qp[q], arena.plane(p), arena.words()))
            << shape_name(arena, qp.size()) << " q=" << q << " p=" << p;
      }
    }
  });
}

TEST(KernelEquivalence, HammingMatrixMaskedAllIsas) {
  util::Xoshiro256 rng(0x9a5eed);
  const auto ref_masked = [](const std::uint64_t* a, const std::uint64_t* b,
                             const std::uint64_t* m, std::size_t n) {
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += static_cast<std::uint32_t>(std::popcount((a[i] ^ b[i]) & m[i]));
    }
    return total;
  };
  for_each_arena_shape(rng, [&](const kernels::Ops& ops,
                                const mem::PlaneArena& arena,
                                const auto& queries) {
    std::vector<const std::uint64_t*> qp;
    for (const auto& q : queries) qp.push_back(q.data());
    const std::size_t words = arena.words();
    const std::size_t np = arena.num_planes();
    // Random mask plus the two degenerate masks: all-ones must reproduce
    // the null mask exactly; all-zeros must return 0.
    const auto random_mask = random_words(words, rng);
    const std::vector<std::uint64_t> ones(words, ~0ULL);
    const std::vector<std::uint64_t> zeros(words, 0ULL);
    for (const auto* mask : {&random_mask, &ones, &zeros}) {
      std::vector<std::uint32_t> out(qp.size() * np, 0xdeadbeef);
      ops.hamming_matrix_arena(qp.data(), qp.size(), arena.view(),
                               mask->data(), out.data());
      for (std::size_t q = 0; q < qp.size(); ++q) {
        for (std::size_t p = 0; p < np; ++p) {
          ASSERT_EQ(out[q * np + p],
                    ref_masked(qp[q], arena.plane(p), mask->data(), words))
              << shape_name(arena, qp.size()) << " q=" << q << " p=" << p;
        }
      }
    }
    // All-ones mask == the null mask, element for element.
    std::vector<std::uint32_t> masked_out(qp.size() * np, 0);
    std::vector<std::uint32_t> plain_out(qp.size() * np, 1);
    ops.hamming_matrix_arena(qp.data(), qp.size(), arena.view(), ones.data(),
                             masked_out.data());
    ops.hamming_matrix_arena(qp.data(), qp.size(), arena.view(), nullptr,
                             plain_out.data());
    EXPECT_EQ(masked_out, plain_out) << shape_name(arena, qp.size());
  });
}

// ---- class-counter kernels (training) ------------------------------------

/// Dimensions for the counter kernels: sub-word, around the AVX2 (8) and
/// AVX-512 (16) lane widths, around one word, and paper-scale.
constexpr std::array<std::size_t, 10> kCounterDims = {1,  15, 16,   17,  63,
                                                      64, 65, 100, 4096, 10000};

bool ref_bit(const std::vector<std::uint64_t>& words, std::size_t i) {
  return ((words[i / 64] >> (i % 64)) & 1u) != 0;
}

/// Counters spread over [-span, span], so a bundling step crosses zero
/// and a sign sees zeros.
std::vector<std::int32_t> random_counts(std::size_t n, std::int32_t span,
                                        util::Xoshiro256& rng) {
  std::vector<std::int32_t> counts(n);
  for (auto& c : counts) c = static_cast<std::int32_t>(rng.range(-span, span));
  return counts;
}

TEST(KernelEquivalence, BundleSignedAllIsas) {
  util::Xoshiro256 rng(0xb0d1e);
  constexpr std::size_t kGuard = 16;
  constexpr std::int32_t kSentinel = 0x5a5a5a5a;
  for (const auto isa : kAllIsas) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    for (const std::size_t dims : kCounterDims) {
      for (const std::int32_t weight : {1, -1, 7, -300}) {
        // Random bits, including past dims: the kernel must ignore them.
        const auto bits = random_words(util::words_for_bits(dims), rng);
        auto counts = random_counts(dims, 8, rng);
        counts.resize(dims + kGuard, kSentinel);
        auto expected = counts;
        for (std::size_t i = 0; i < dims; ++i) {
          expected[i] += ref_bit(bits, i) ? weight : -weight;
        }
        ops->bundle_signed(counts.data(), bits.data(), dims, weight);
        ASSERT_EQ(counts, expected)
            << kernels::isa_name(isa) << " dims=" << dims
            << " weight=" << weight;
      }
    }
  }
}

TEST(KernelEquivalence, SignPackAllIsas) {
  util::Xoshiro256 rng(0x5195);
  constexpr std::uint64_t kGuard = 0xfeedfacecafebeefULL;
  for (const auto isa : kAllIsas) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    for (const std::size_t dims : kCounterDims) {
      const std::size_t words = util::words_for_bits(dims);
      // Counts in [-2, 2]: about a fifth of the dimensions tie.
      const auto counts = random_counts(dims, 2, rng);
      // Tie-break bits are random past dims too; none may reach `out`.
      const auto tie = random_words(words, rng);
      std::size_t ties = 0;
      for (const auto c : counts) ties += c == 0 ? 1 : 0;
      for (const bool with_tie : {false, true}) {
        std::vector<std::uint64_t> expected(words + 1, 0);
        expected[words] = kGuard;
        for (std::size_t i = 0; i < dims; ++i) {
          const bool bit = counts[i] > 0 ||
                           (counts[i] == 0 && with_tie && ref_bit(tie, i));
          if (bit) expected[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        const std::string what = std::string(kernels::isa_name(isa)) +
                                 " dims=" + std::to_string(dims) +
                                 " ties=" + std::to_string(ties) +
                                 " tie_break=" + (with_tie ? "yes" : "no");
        std::vector<std::uint64_t> out(words + 1, ~0ULL);
        out[words] = kGuard;
        ops->sign_pack(counts.data(), dims, with_tie ? tie.data() : nullptr,
                       out.data());
        ASSERT_EQ(out, expected) << what;
        if (!with_tie) continue;
        // `out` aliasing `tie_break`: tied dimensions keep their old bits.
        std::vector<std::uint64_t> in_place = tie;
        in_place.push_back(kGuard);
        ops->sign_pack(counts.data(), dims, in_place.data(), in_place.data());
        ASSERT_EQ(in_place, expected) << what << " (in place)";
      }
    }
  }
}

/// Rows for the majority kernel. Word w is random when w % 4 == 0 and in
/// the last word (whose bits past dims no output may show), all ones when
/// w % 4 == 1 (every count at n, the counter's top), all zeros when
/// w % 4 == 2, and sparse (about a quarter of the bits set) otherwise.
std::vector<std::vector<std::uint64_t>> majority_rows(std::size_t n,
                                                      std::size_t words,
                                                      util::Xoshiro256& rng) {
  std::vector<std::vector<std::uint64_t>> rows(
      n, std::vector<std::uint64_t>(words));
  for (auto& row : rows) {
    for (std::size_t w = 0; w < words; ++w) {
      switch (w + 1 == words ? 0 : w % 4) {
        case 0:
          row[w] = rng.next();
          break;
        case 1:
          row[w] = ~0ULL;
          break;
        case 2:
          row[w] = 0;
          break;
        default:
          row[w] = rng.next() & rng.next();
      }
    }
  }
  return rows;
}

TEST(KernelEquivalence, MajorityAllIsas) {
  util::Xoshiro256 rng(0x3a70);
  constexpr std::uint64_t kGuard = 0xfeedfacecafebeefULL;
  for (const std::size_t n : {1, 2, 3, 4, 75, 400, 5000}) {
    for (const std::size_t dims : {1, 63, 64, 65, 4096, 16385}) {
      const std::size_t words = util::words_for_bits(dims);
      const auto rows = majority_rows(n, words, rng);
      std::vector<const std::uint64_t*> ptrs;
      for (const auto& row : rows) ptrs.push_back(row.data());
      // Random past dims too; none of it may reach `out`.
      const auto tie = random_words(words, rng);
      // The reference: count every dimension, then compare twice the
      // count with n.
      std::vector<std::size_t> counts(dims, 0);
      for (const auto& row : rows) {
        for (std::size_t i = 0; i < dims; ++i) counts[i] += ref_bit(row, i);
      }
      std::size_t ties = 0;
      for (const auto c : counts) ties += 2 * c == n ? 1 : 0;
      for (const bool with_tie : {false, true}) {
        std::vector<std::uint64_t> expected(words + 1, 0);
        expected[words] = kGuard;
        for (std::size_t i = 0; i < dims; ++i) {
          const bool bit = 2 * counts[i] > n ||
                           (2 * counts[i] == n && with_tie && ref_bit(tie, i));
          if (bit) expected[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        for (const auto isa : kAllIsas) {
          const auto* ops = kernels::ops_for(isa);
          if (ops == nullptr) continue;
          const std::string what = std::string(kernels::isa_name(isa)) +
                                   " n=" + std::to_string(n) +
                                   " dims=" + std::to_string(dims) +
                                   " ties=" + std::to_string(ties) +
                                   " tie_break=" + (with_tie ? "yes" : "no");
          std::vector<std::uint64_t> out(words + 1, ~0ULL);
          out[words] = kGuard;
          ops->majority(ptrs.data(), n, dims, with_tie ? tie.data() : nullptr,
                        out.data());
          ASSERT_EQ(out, expected) << what;
          if (!with_tie) continue;
          // `out` aliasing `tie_break`.
          std::vector<std::uint64_t> in_place = tie;
          in_place.push_back(kGuard);
          ops->majority(ptrs.data(), n, dims, in_place.data(),
                        in_place.data());
          ASSERT_EQ(in_place, expected) << what << " (in place)";
        }
      }
    }
  }
}

TEST(KernelEquivalence, MajorityOfNoRowsIsTheTieBreak) {
  util::Xoshiro256 rng(0x3a71);
  for (const auto isa : kAllIsas) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    for (const std::size_t dims : {1, 65, 4096}) {
      const std::size_t words = util::words_for_bits(dims);
      auto tie = random_words(words, rng);
      std::vector<std::uint64_t> out(words, ~0ULL);
      ops->majority(nullptr, 0, dims, nullptr, out.data());
      EXPECT_EQ(out, std::vector<std::uint64_t>(words, 0))
          << kernels::isa_name(isa) << " dims=" << dims;
      ops->majority(nullptr, 0, dims, tie.data(), out.data());
      if (dims % 64 != 0) tie.back() &= util::low_mask(dims % 64);
      EXPECT_EQ(out, tie) << kernels::isa_name(isa) << " dims=" << dims;
    }
  }
}

// ---- BinVec paths rewired onto the kernels ------------------------------

TEST(BinVecKernels, CountOnesAndHammingMatchPerBit) {
  util::Xoshiro256 rng(0xc0de);
  for (const std::size_t dim : {63, 64, 65, 10000}) {
    const auto a = hv::BinVec::random(dim, rng);
    const auto b = hv::BinVec::random(dim, rng);
    std::size_t ones = 0, diff = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      ones += a.get(i);
      diff += a.get(i) != b.get(i);
    }
    EXPECT_EQ(a.count_ones(), ones) << "dim=" << dim;
    EXPECT_EQ(hv::hamming(a, b), diff) << "dim=" << dim;
  }
}

TEST(BinVecKernels, HammingRangeMatchesPerBitAndHandlesEmpty) {
  util::Xoshiro256 rng(0x4a11);
  for (const std::size_t dim : {63, 64, 65, 10000}) {
    const auto a = hv::BinVec::random(dim, rng);
    const auto b = hv::BinVec::random(dim, rng);
    // The complement differs in every bit, so both edge words count all
    // their in-range bits.
    const auto complement = [&] {
      auto v = a;
      v.invert();
      return v;
    }();
    const std::array<std::pair<std::size_t, std::size_t>, 7> ranges = {{
        {0, dim}, {0, 1}, {dim - 1, dim}, {0, 0}, {dim, dim},
        {dim / 3, 2 * dim / 3}, {dim / 2, dim / 2}}};
    for (const auto* other : {&b, &complement}) {
      for (const auto [begin, end] : ranges) {
        std::size_t expected = 0;
        for (std::size_t i = begin; i < end; ++i) {
          expected += a.get(i) != other->get(i);
        }
        EXPECT_EQ(hv::hamming_range(a, *other, begin, end), expected)
            << "dim=" << dim << " [" << begin << "," << end << ")";
      }
    }
  }
}

TEST(BinVecKernels, RotatedMatchesPerBitReference) {
  util::Xoshiro256 rng(0x5107);
  for (const std::size_t dim : {63, 64, 65, 130, 10000}) {
    const auto v = hv::BinVec::random(dim, rng);
    for (const std::size_t amount :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, dim / 2, dim - 1, dim}) {
      const auto r = v.rotated(amount);
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(r.get((i + amount) % dim), v.get(i))
            << "dim=" << dim << " amount=" << amount << " bit=" << i;
      }
      // Tail invariant survives the word-level funnel shift.
      if ((dim & 63) != 0) {
        EXPECT_EQ(r.words().back() & ~util::low_mask(dim & 63), 0u);
      }
    }
  }
}

TEST(BinVecKernels, RotatedRoundTrips) {
  util::Xoshiro256 rng(0x0707);
  for (const std::size_t dim : {63, 64, 65, 10000}) {
    const auto v = hv::BinVec::random(dim, rng);
    for (const std::size_t raw : {std::size_t{1}, std::size_t{37},
                                  std::size_t{64}, dim - 1}) {
      const std::size_t amount = raw % dim;  // keep dim - amount in range
      const auto back = v.rotated(amount).rotated(dim - amount);
      EXPECT_EQ(hv::hamming(v, back), 0u)
          << "dim=" << dim << " amount=" << amount;
    }
  }
}

// ---- bit-sliced counter: fused bind+add and word-parallel threshold -----

TEST(BitSliceKernels, AddBoundEqualsAddOfBind) {
  util::Xoshiro256 rng(0xb17e);
  const std::size_t dim = 777;
  hv::BitSliceCounter fused(dim), plain(dim);
  for (int k = 0; k < 9; ++k) {
    const auto a = hv::BinVec::random(dim, rng);
    const auto b = hv::BinVec::random(dim, rng);
    fused.add_bound(a, b);
    plain.add(hv::bind(a, b));
  }
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(fused.count(i), plain.count(i)) << "dim " << i;
  }
}

TEST(BitSliceKernels, ThresholdIntoMatchesThresholdMajority) {
  util::Xoshiro256 rng(0x7e57);
  const std::size_t dim = 300;
  const auto tie_break = hv::BinVec::random(dim, rng);
  for (const int adds : {1, 2, 5, 6, 31, 32}) {  // odd and even bundles
    hv::BitSliceCounter counter(dim);
    for (int k = 0; k < adds; ++k) counter.add(hv::BinVec::random(dim, rng));
    const auto expected = counter.threshold_majority(&tie_break);
    hv::BinVec out;
    counter.threshold_majority_into(out, &tie_break);
    EXPECT_EQ(out.dimension(), dim);
    EXPECT_EQ(hv::hamming(expected, out), 0u) << "adds=" << adds;
    // And without a tie-breaker (ties resolve to 0).
    const auto expected_plain = counter.threshold_majority(nullptr);
    counter.threshold_majority_into(out, nullptr);
    EXPECT_EQ(hv::hamming(expected_plain, out), 0u) << "adds=" << adds;
  }
}

TEST(BitSliceKernels, ResetAndResizeReuseStorage) {
  util::Xoshiro256 rng(0x2e5e);
  const std::size_t dim = 500;
  hv::BitSliceCounter counter(dim);
  for (int k = 0; k < 7; ++k) counter.add(hv::BinVec::random(dim, rng));
  const std::size_t planes = counter.plane_count();
  counter.reset();
  EXPECT_EQ(counter.added(), 0u);
  EXPECT_EQ(counter.plane_count(), planes);  // storage kept
  for (std::size_t i = 0; i < dim; ++i) ASSERT_EQ(counter.count(i), 0u);
  counter.resize(dim);  // same word width: still no reallocation
  EXPECT_EQ(counter.plane_count(), planes);
}

// ---- zero-allocation encode --------------------------------------------

/// Independent reference for RecordEncoder, bit by bit: per-dimension
/// counts of level(f_k) XOR base(k), then a majority vote in which an
/// exact tie (possible only for even feature counts) takes the encoder's
/// tie-break bit. `ties` counts the tied dimensions.
hv::BinVec reference_encode(const hv::RecordEncoder& encoder,
                            const std::vector<float>& features,
                            std::size_t& ties) {
  const auto& memory = encoder.item_memory();
  const std::size_t dim = encoder.dimension();
  std::vector<std::size_t> ones(dim, 0);
  for (std::size_t k = 0; k < features.size(); ++k) {
    const auto& level = memory.level(memory.level_index(features[k]));
    const auto& base = memory.base(k);
    for (std::size_t d = 0; d < dim; ++d) {
      ones[d] += level.get(d) != base.get(d) ? 1 : 0;
    }
  }
  hv::BinVec out(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    if (2 * ones[d] > features.size()) {
      out.set(d, true);
    } else if (2 * ones[d] == features.size()) {
      out.set(d, encoder.tie_break().get(d));
      ++ties;
    }
  }
  return out;
}

TEST(EncodeKernels, EncodeIntoMatchesMajorityReference) {
  for (const std::size_t dim : {63u, 64u, 65u, 4096u}) {
    // Odd counts never tie; even counts exercise the tie-break path.
    for (const std::size_t features : {13u, 14u}) {
      hv::EncoderConfig config;
      config.dimension = dim;
      hv::RecordEncoder encoder(features, config);
      util::Xoshiro256 rng(0xfeed ^ (dim << 8) ^ features);
      hv::EncodeWorkspace ws;
      hv::BinVec out;
      std::size_t ties = 0;
      for (int s = 0; s < 20; ++s) {
        std::vector<float> sample(features);
        for (auto& f : sample) f = static_cast<float>(rng.uniform());
        const auto expected = reference_encode(encoder, sample, ties);
        encoder.encode_into(sample, out, ws);
        ASSERT_EQ(out.dimension(), dim);
        EXPECT_EQ(hv::hamming(expected, out), 0u)
            << "D=" << dim << " features=" << features << " sample " << s;
      }
      if (features % 2 == 0) {
        EXPECT_GT(ties, 0u) << "D=" << dim << ": tie path never exercised";
      } else {
        EXPECT_EQ(ties, 0u);
      }
    }
  }
}

TEST(EncodeKernels, WorkspaceCapacityStabilises) {
  hv::EncoderConfig config;
  config.dimension = 1024;
  const std::size_t features = 40;
  hv::RecordEncoder encoder(features, config);
  util::Xoshiro256 rng(0xcafe);
  hv::EncodeWorkspace ws;
  hv::BinVec out;
  std::vector<float> sample(features);
  for (auto& f : sample) f = static_cast<float>(rng.uniform());
  encoder.encode_into(sample, out, ws);
  const auto warm = ws.capacity_signature();
  for (int s = 0; s < 10; ++s) {
    for (auto& f : sample) f = static_cast<float>(rng.uniform());
    encoder.encode_into(sample, out, ws);
    EXPECT_EQ(ws.capacity_signature(), warm) << "encode " << s;
  }
}

// ---- model batch scoring ------------------------------------------------

model::HdcModel tiny_model(std::size_t dim, std::size_t classes,
                           unsigned precision, util::Xoshiro256& rng) {
  hv::CounterStore counters(classes, dim);
  for (std::size_t c = 0; c < classes; ++c) {
    for (int i = 0; i < 5; ++i) counters.row(c).add(hv::BinVec::random(dim, rng));
  }
  return model::HdcModel::from_accumulators(counters, precision);
}

/// Naive masked scores: per-bit match counts over the kept dimensions,
/// combined in the same order as HdcModel::scores_batch.
std::vector<double> ref_masked_scores(const model::HdcModel& m,
                                      const hv::BinVec& query,
                                      std::span<const std::uint64_t> mask,
                                      std::size_t kept) {
  const unsigned planes = m.precision_bits();
  const double denom = static_cast<double>(kept) *
                       static_cast<double>((1u << planes) - 1);
  std::vector<double> out(m.num_classes());
  for (std::size_t c = 0; c < m.num_classes(); ++c) {
    double score = 0.0;
    for (unsigned p = 0; p < planes; ++p) {
      const auto plane = m.class_vector(c).planes[p];
      std::size_t matches = 0;
      for (std::size_t i = 0; i < m.dimension(); ++i) {
        matches += util::get_bit(mask, i) && plane.get(i) == query.get(i);
      }
      score += static_cast<double>(1u << p) * static_cast<double>(matches);
    }
    out[c] = score / denom;
  }
  return out;
}

TEST(ModelKernels, ScoresBatchBitIdenticalToScores) {
  util::Xoshiro256 rng(0x5c02e);
  // (dim, classes, precision, queries): small odd shapes, and D = 10,000
  // with 70 queries at precision 3, which crosses the arena kernel's
  // 8/4/1 query-group rims with three weighted planes per class.
  struct Shape {
    std::size_t dim, classes;
    unsigned precision;
    std::size_t queries;
  };
  for (const auto& shape : {Shape{1000, 6, 1, 11}, Shape{1000, 6, 2, 11},
                            Shape{1000, 6, 3, 11}, Shape{10000, 5, 1, 70},
                            Shape{10000, 5, 3, 70}}) {
    const auto m = tiny_model(shape.dim, shape.classes, shape.precision, rng);
    std::vector<hv::BinVec> queries;
    std::vector<const hv::BinVec*> ptrs;
    for (std::size_t i = 0; i < shape.queries; ++i) {
      queries.push_back(hv::BinVec::random(shape.dim, rng));
    }
    for (const auto& q : queries) ptrs.push_back(&q);
    model::ScoreWorkspace ws;
    m.scores_batch(ptrs, ws);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto expected = m.scores(queries[i]);
      for (std::size_t c = 0; c < m.num_classes(); ++c) {
        // Bit-identical doubles, not approximately equal.
        ASSERT_EQ(ws.scores[i * m.num_classes() + c], expected[c])
            << "dim=" << shape.dim << " precision=" << shape.precision
            << " q=" << i << " c=" << c;
      }
    }

    // Quarantine mask excluding chunks in the middle (a word-aligned run
    // and a run that starts and ends inside words).
    const std::size_t words = util::words_for_bits(shape.dim);
    std::vector<std::uint64_t> mask(words, ~0ULL);
    if (shape.dim % 64 != 0) mask[words - 1] = util::low_mask(shape.dim % 64);
    for (std::size_t i = shape.dim / 3; i < shape.dim / 2; ++i) {
      util::set_bit(mask, i, false);
    }
    for (std::size_t i = 6 * shape.dim / 10 + 5; i < 7 * shape.dim / 10 + 3;
         ++i) {
      util::set_bit(mask, i, false);
    }
    const std::size_t kept = util::popcount(mask);
    m.scores_batch(ptrs, ws, mask.data(), kept);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto expected = ref_masked_scores(m, queries[i], mask, kept);
      for (std::size_t c = 0; c < m.num_classes(); ++c) {
        ASSERT_EQ(ws.scores[i * m.num_classes() + c], expected[c])
            << "masked dim=" << shape.dim << " precision=" << shape.precision
            << " q=" << i << " c=" << c;
      }
    }
  }
}

TEST(ModelKernels, PredictBatchBitIdenticalToSerialPredict) {
  util::Xoshiro256 rng(0xba7c4);
  struct Shape {
    std::size_t dim, classes;
    unsigned precision;
  };
  for (const auto& shape : {Shape{513, 5, 1}, Shape{513, 5, 2},
                            Shape{10000, 5, 3}}) {
    const auto m = tiny_model(shape.dim, shape.classes, shape.precision, rng);
    std::vector<hv::BinVec> queries;
    // 300 queries: one full 256-query block and a ragged second block,
    // each crossing the kernel's 8/4/1 query-group rims.
    for (int i = 0; i < 300; ++i) {
      queries.push_back(hv::BinVec::random(shape.dim, rng));
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      const auto batched = m.predict_batch(queries, threads);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(batched[i], m.predict(queries[i]))
            << "dim=" << shape.dim << " precision=" << shape.precision
            << " threads=" << threads << " q=" << i;
      }
    }
  }
}

TEST(ModelKernels, ChunkScoresAllMatchesChunkScores) {
  util::Xoshiro256 rng(0xc4a2c);
  const auto m = tiny_model(997, 4, 1, rng);  // prime dim: ragged chunks
  const auto query = hv::BinVec::random(997, rng);
  const std::size_t chunks = 20;
  std::vector<double> all;
  m.chunk_scores_all(query, chunks, all);
  ASSERT_EQ(all.size(), chunks * m.num_classes());
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * 997 / chunks;
    const std::size_t end = (c + 1) * 997 / chunks;
    const auto expected = m.chunk_scores(query, begin, end);
    for (std::size_t k = 0; k < m.num_classes(); ++k) {
      ASSERT_EQ(all[c * m.num_classes() + k], expected[k])
          << "chunk=" << c << " class=" << k;
    }
  }
}

// ---- crossbar / cost-model cross-check ----------------------------------

TEST(PimKernels, HammingMatrixMatchesCrossbarSearch) {
  util::Xoshiro256 rng(0xc20);
  const std::size_t dim = 96;  // keep the functional simulator small
  const std::size_t classes = 4;
  pim::CrossbarHdcUnit unit(dim, classes);
  mem::PlaneArena planes(classes, dim);
  for (std::size_t c = 0; c < classes; ++c) {
    const auto stored = hv::BinVec::random(dim, rng);
    unit.load_class(c, stored);
    planes.store_plane(c, stored);
  }
  const auto query = hv::BinVec::random(dim, rng);
  const auto in_memory = unit.hamming_search(query);
  const std::uint64_t* qp = query.words().data();
  std::vector<std::uint32_t> simd(classes);
  kernels::hamming_matrix_arena(&qp, 1, planes.view(), simd.data());
  ASSERT_EQ(in_memory.size(), classes);
  for (std::size_t c = 0; c < classes; ++c) {
    EXPECT_EQ(in_memory[c], simd[c]) << "class " << c;
  }
}

TEST(PimKernels, SearchWordopsModelIsConsistent) {
  // The shared op-count formula prices exactly the distance-matrix work:
  // 3 word ops per (query, class) word, linear in the batch.
  EXPECT_DOUBLE_EQ(pim::hdc_search_wordops(10000, 26, 1),
                   26.0 * (10000.0 / 64.0) * 3.0);
  EXPECT_DOUBLE_EQ(pim::hdc_search_wordops(10000, 26, 8),
                   8.0 * pim::hdc_search_wordops(10000, 26, 1));
  // gpu_cost_hdc (similarity-only) must be priced from the same count.
  pim::HdcWorkloadSpec spec;
  spec.dimension = 10000;
  spec.classes = 26;
  spec.include_encoding = false;
  const auto cost = pim::gpu_cost_hdc(spec);
  const auto params = pim::GpuParams::gtx1080();
  const double compute_s =
      pim::hdc_search_wordops(spec.dimension, spec.classes) /
      params.wordop_per_s;
  const double mem_s = (26.0 * (10000.0 / 64.0) * 8.0) /
                       (params.dram_bandwidth_gb_s * 1.0e9);
  EXPECT_DOUBLE_EQ(cost.latency_us, std::max(compute_s, mem_s) * 1.0e6);
}

}  // namespace
}  // namespace robusthd
