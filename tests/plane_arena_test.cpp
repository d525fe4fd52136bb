// Tests for mem::PlaneArena and the arena scoring path.
//
// Covers the storage invariants the arena kernels rely on (64-byte base
// and per-row alignment, vector-multiple and set-de-aliased stride, L1/L2
// tile geometry), the hugepage request plumbing and its graceful
// fallback, BinVec round-trips through store/load, the arena kernels'
// bit-identity with per-pair Hamming over the source vectors on every
// available ISA (awkward dimensions, all-ones and random masks), and the
// model-level contract: the factories fill the arena, and snapshot copies
// that are written through views and fault regions while other threads
// score published snapshots stay coherent (the TSan case).
#include "robusthd/mem/plane_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "robusthd/fault/injector.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/util/aligned.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd {
namespace {

constexpr std::array<kernels::Isa, 3> kAllIsas = {
    kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512};

mem::PlaneArena make_arena(std::size_t planes, std::size_t dim,
                           util::Xoshiro256& rng,
                           std::vector<hv::BinVec>& sources,
                           const mem::PlaneArenaConfig& config = {}) {
  mem::PlaneArena arena(planes, dim, config);
  sources.clear();
  for (std::size_t p = 0; p < planes; ++p) {
    sources.push_back(hv::BinVec::random(dim, rng));
    arena.store_plane(p, sources.back());
  }
  return arena;
}

// ---- storage invariants -------------------------------------------------

TEST(PlaneArenaTest, AlignmentAndStrideInvariants) {
  util::Xoshiro256 rng(1);
  for (const auto& [planes, dim] : std::vector<std::pair<std::size_t,
                                                         std::size_t>>{
           {1, 63}, {3, 64}, {7, 65}, {16, 10000}, {4, 32768}, {2, 131072}}) {
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(planes, dim, rng, sources);
    ASSERT_FALSE(arena.empty());
    EXPECT_EQ(arena.num_planes(), planes);
    EXPECT_EQ(arena.dimension(), dim);
    EXPECT_EQ(arena.words(), util::words_for_bits(dim));
    EXPECT_TRUE(util::is_cacheline_aligned(arena.data()));
    for (std::size_t p = 0; p < planes; ++p) {
      EXPECT_TRUE(util::is_cacheline_aligned(arena.plane(p)));
    }
    // Stride: whole 512-bit vectors, at least the payload...
    EXPECT_EQ(arena.stride_words() % 8, 0u);
    EXPECT_GE(arena.stride_words(), arena.words());
    // ...and never a page multiple: a 4096-byte-aligned stride maps the
    // same tile chunk of every plane onto one small group of L2 sets.
    EXPECT_NE(arena.stride_words() * sizeof(std::uint64_t) % 4096, 0u)
        << "stride " << arena.stride_words() << " words aliases L2 sets";
  }
}

TEST(PlaneArenaTest, PageMultipleStrideIsPadded) {
  // 32768 bits = 512 words = exactly 4 KiB: the natural stride is a page
  // multiple and must be padded by one vector.
  mem::PlaneArena arena(2, 32768);
  EXPECT_EQ(arena.words(), 512u);
  EXPECT_EQ(arena.stride_words(), 520u);
}

TEST(PlaneArenaTest, TileGeometry) {
  mem::PlaneArenaConfig config;
  config.l2_tile_bytes = 1u << 20;
  // 128 planes, 4096 words: the 1 MiB L2 budget would allow 1024-word
  // chunks, but the L1 cap (8-query group working set) holds them at 512.
  mem::PlaneArena arena(128, 262144, config);
  EXPECT_EQ(arena.tile_words(), 512u);
  EXPECT_EQ(arena.num_tiles(), 8u);

  // Many planes: the L2 budget divides below the cap.
  mem::PlaneArena narrow(1024, 262144, config);
  EXPECT_EQ(narrow.tile_words(), 128u);

  // Few words: a single tile covering the whole plane.
  mem::PlaneArena tiny(4, 1000, config);
  EXPECT_EQ(tiny.tile_words(), tiny.words());
  EXPECT_EQ(tiny.num_tiles(), 1u);

  // Tile width is always a whole number of vectors (or the whole plane).
  for (std::size_t planes : {3u, 77u, 500u}) {
    mem::PlaneArena a(planes, 100000, config);
    if (a.tile_words() < a.words()) {
      EXPECT_EQ(a.tile_words() % 8, 0u) << planes << " planes";
    }
  }
}

TEST(PlaneArenaTest, EmptyArena) {
  mem::PlaneArena arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.num_planes(), 0u);
  EXPECT_EQ(arena.bytes(), 0u);
  EXPECT_EQ(arena.data(), nullptr);
}

TEST(PlaneArenaTest, HugepageDisabledNeverBacked) {
  mem::PlaneArenaConfig config;
  config.hugepages = false;
  mem::PlaneArena arena(8, 100000, config);
  EXPECT_FALSE(arena.hugepage_backed());
  // Allocation works either way and is zero-filled.
  for (std::size_t w = 0; w < arena.words(); ++w) {
    ASSERT_EQ(arena.plane(3)[w], 0u);
  }
}

TEST(PlaneArenaTest, HugepageRequestIsBestEffort) {
  // With the request on, the flag reports whatever the kernel granted —
  // either way the arena must be usable and zeroed.
  mem::PlaneArenaConfig config;
  config.hugepages = true;
  mem::PlaneArena arena(4, 2 * 1024 * 1024);
  ASSERT_FALSE(arena.empty());
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t w = 0; w < arena.words(); w += 997) {
      ASSERT_EQ(arena.plane(p)[w], 0u);
    }
  }
}

// ---- round-trips --------------------------------------------------------

TEST(PlaneArenaTest, StoreLoadRoundTrip) {
  util::Xoshiro256 rng(2);
  for (std::size_t dim : {63u, 64u, 65u, 10000u}) {
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(5, dim, rng, sources);
    for (std::size_t p = 0; p < 5; ++p) {
      hv::BinVec out;
      arena.load_plane(p, out);
      EXPECT_EQ(out, sources[p]) << "dim " << dim << " plane " << p;
    }
  }
}

// ---- kernel equivalence -------------------------------------------------

TEST(PlaneArenaTest, ArenaKernelMatchesRowMajorEveryIsa) {
  util::Xoshiro256 rng(4);
  for (std::size_t dim : {63u, 64u, 65u, 10000u}) {
    const std::size_t planes = 7;
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(planes, dim, rng, sources);

    std::vector<hv::BinVec> queries_store;
    std::vector<const std::uint64_t*> queries;
    // 13 queries: exercises the 8-, 4-, and single-query group rims.
    for (std::size_t q = 0; q < 13; ++q) {
      queries_store.push_back(hv::BinVec::random(dim, rng));
    }
    for (const auto& q : queries_store) queries.push_back(q.words().data());

    // The reference: per-pair Hamming over the row-major source vectors.
    std::vector<std::uint32_t> want;
    for (const auto& q : queries_store) {
      for (const auto& s : sources) {
        want.push_back(static_cast<std::uint32_t>(hv::hamming(q, s)));
      }
    }
    for (const auto isa : kAllIsas) {
      const auto* ops = kernels::ops_for(isa);
      if (ops == nullptr) continue;
      std::vector<std::uint32_t> got(queries.size() * planes, 0xbeef);
      ops->hamming_matrix_arena(queries.data(), queries.size(), arena.view(),
                                nullptr, got.data());
      EXPECT_EQ(got, want) << kernels::isa_name(isa) << " dim " << dim;
    }
  }
}

TEST(PlaneArenaTest, MaskedArenaKernelMatchesRowMajorEveryIsa) {
  util::Xoshiro256 rng(5);
  for (std::size_t dim : {63u, 64u, 65u, 10000u}) {
    const std::size_t planes = 5;
    const std::size_t words = util::words_for_bits(dim);
    std::vector<hv::BinVec> sources;
    const auto arena = make_arena(planes, dim, rng, sources);

    std::vector<hv::BinVec> queries_store;
    std::vector<const std::uint64_t*> queries;
    for (std::size_t q = 0; q < 9; ++q) {
      queries_store.push_back(hv::BinVec::random(dim, rng));
    }
    for (const auto& q : queries_store) queries.push_back(q.words().data());

    // All-ones (within the dimension) and a random quarantine-style mask.
    util::AlignedU64Vec all_ones(words, ~0ull);
    if (dim % 64 != 0) all_ones[words - 1] = util::low_mask(dim % 64);
    util::AlignedU64Vec random_mask(words);
    for (auto& w : random_mask) w = rng.next();
    random_mask[words - 1] &= all_ones[words - 1];

    for (const auto* mask : {&all_ones, &random_mask}) {
      // The reference: per-pair masked Hamming over the row-major sources.
      std::vector<std::uint32_t> want;
      for (const auto& q : queries_store) {
        for (const auto& src : sources) {
          std::uint32_t d = 0;
          for (std::size_t w = 0; w < words; ++w) {
            d += static_cast<std::uint32_t>(std::popcount(
                (q.words()[w] ^ src.words()[w]) & (*mask)[w]));
          }
          want.push_back(d);
        }
      }
      for (const auto isa : kAllIsas) {
        const auto* ops = kernels::ops_for(isa);
        if (ops == nullptr) continue;
        std::vector<std::uint32_t> got(queries.size() * planes, 2);
        ops->hamming_matrix_arena(queries.data(), queries.size(),
                                  arena.view(), mask->data(), got.data());
        EXPECT_EQ(got, want) << kernels::isa_name(isa) << " dim " << dim;
      }
    }
  }
}

// ---- copy/move ----------------------------------------------------------

TEST(PlaneArenaTest, CopyIsDeepAndPreservesGeometry) {
  util::Xoshiro256 rng(6);
  std::vector<hv::BinVec> sources;
  const auto arena = make_arena(4, 10000, rng, sources);

  mem::PlaneArena copy(arena);
  ASSERT_EQ(copy.num_planes(), arena.num_planes());
  EXPECT_EQ(copy.stride_words(), arena.stride_words());
  EXPECT_EQ(copy.tile_words(), arena.tile_words());
  EXPECT_NE(copy.data(), arena.data());
  hv::BinVec out;
  for (std::size_t p = 0; p < 4; ++p) {
    copy.load_plane(p, out);
    EXPECT_EQ(out, sources[p]);
  }

  // Same-geometry assignment reuses the allocation.
  std::vector<hv::BinVec> other_sources;
  const auto other = make_arena(4, 10000, rng, other_sources);
  const std::uint64_t* before = copy.data();
  copy = other;
  EXPECT_EQ(copy.data(), before);
  copy.load_plane(2, out);
  EXPECT_EQ(out, other_sources[2]);
}

TEST(PlaneArenaTest, MoveTransfersOwnership) {
  util::Xoshiro256 rng(7);
  std::vector<hv::BinVec> sources;
  auto arena = make_arena(2, 5000, rng, sources);
  const std::uint64_t* base = arena.data();

  mem::PlaneArena moved(std::move(arena));
  EXPECT_EQ(moved.data(), base);
  EXPECT_TRUE(arena.empty());  // NOLINT(bugprone-use-after-move)
  hv::BinVec out;
  moved.load_plane(1, out);
  EXPECT_EQ(out, sources[1]);
}

// ---- model storage ------------------------------------------------------

model::HdcModel random_model(std::size_t classes, std::size_t dim,
                             unsigned precision_bits, util::Xoshiro256& rng) {
  std::vector<model::ClassVector> cvs;
  for (std::size_t c = 0; c < classes; ++c) {
    model::ClassVector cv;
    for (unsigned p = 0; p < precision_bits; ++p) {
      cv.planes.push_back(hv::BinVec::random(dim, rng));
    }
    cvs.push_back(std::move(cv));
  }
  return model::HdcModel::from_planes(cvs, precision_bits);
}

TEST(PlaneArenaModelTest, FactoriesEstablishTheArena) {
  util::Xoshiro256 rng(8);
  std::vector<model::ClassVector> cvs(6);
  for (auto& cv : cvs) {
    for (int p = 0; p < 2; ++p) {
      cv.planes.push_back(hv::BinVec::random(10000, rng));
    }
  }
  const auto m = model::HdcModel::from_planes(cvs, 2);
  EXPECT_EQ(m.arena().num_planes(), 12u);
  EXPECT_EQ(m.arena().dimension(), 10000u);
  // Class c, plane p lives in row c * planes + p.
  hv::BinVec row;
  for (std::size_t c = 0; c < cvs.size(); ++c) {
    for (std::size_t p = 0; p < 2; ++p) {
      m.arena().load_plane(c * 2 + p, row);
      EXPECT_EQ(row, cvs[c].planes[p]) << "class " << c << " plane " << p;
    }
  }
}

// Readers score whichever snapshot is published while a writer copies it,
// damages the copy through mutable plane views and memory_regions(), and
// publishes the copy. Each reader checks its batch against per-query
// scores of the snapshot it holds: a copy that shared storage with its
// source, or a write that leaked into a published snapshot, breaks the
// match (and shows up as a race under TSan).
TEST(PlaneArenaModelTest, SnapshotCopiesWrittenWhileReadersScore) {
  constexpr std::size_t kDim = 4000;
  util::Xoshiro256 rng(14);
  std::vector<hv::BinVec> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(hv::BinVec::random(kDim, rng));
  std::vector<const hv::BinVec*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);

  std::mutex publish_mutex;
  auto published =
      std::make_shared<const model::HdcModel>(random_model(5, kDim, 1, rng));
  const auto acquire = [&] {
    const std::lock_guard<std::mutex> lock(publish_mutex);
    return published;
  };

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> batches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      model::ScoreWorkspace ws;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snapshot = acquire();
        snapshot->scores_batch(ptrs, ws);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const auto expected = snapshot->scores(queries[i]);
          if (!std::equal(expected.begin(), expected.end(),
                          ws.scores.begin() + static_cast<std::ptrdiff_t>(
                                                  i * expected.size()))) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  util::Xoshiro256 writer_rng(15);
  for (int round = 0; round < 40; ++round) {
    model::HdcModel copy = *acquire();
    const auto plane = copy.class_vector(round % 5).planes[0];
    for (int f = 0; f < 64; ++f) plane.flip(writer_rng.next() % kDim);
    auto regions = copy.memory_regions();
    fault::BitFlipInjector::inject(regions, 0.01, fault::AttackMode::kRandom,
                                   writer_rng);
    // The regions cover whole words, so the campaign may set bits past D
    // in a plane's last word. Batch scoring reads whole words and
    // per-query scoring stops at D, so clear them before comparing.
    for (std::size_t c = 0; c < copy.num_classes(); ++c) {
      copy.class_vector(c).planes[0].mask_tail();
    }
    auto next = std::make_shared<const model::HdcModel>(std::move(copy));
    const std::lock_guard<std::mutex> lock(publish_mutex);
    published = std::move(next);
  }
  while (batches.load() < 8) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace robusthd
