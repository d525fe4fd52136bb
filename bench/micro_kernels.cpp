// Google-benchmark microbenchmarks of the kernels everything else is built
// on: XOR binding, Hamming distance, record encoding, model prediction,
// training (whole, and its bundling and sign kernels), and fault
// injection. These are the
// operations whose costs the DPIM mapping (pim/accelerator) models
// analytically — keeping them measured here ties the simulator's op counts
// to observable software behaviour.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "robusthd/robusthd.hpp"

using namespace robusthd;

namespace {

constexpr std::size_t kDim = 10000;

void BM_Bind(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  auto a = hv::BinVec::random(kDim, rng);
  const auto b = hv::BinVec::random(kDim, rng);
  for (auto _ : state) {
    a.bind(b);
    benchmark::DoNotOptimize(a.words().data());
  }
  state.SetItemsProcessed(state.iterations() * kDim);
}
BENCHMARK(BM_Bind);

void BM_Hamming(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  const auto a = hv::BinVec::random(kDim, rng);
  const auto b = hv::BinVec::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv::hamming(a, b));
  }
  state.SetItemsProcessed(state.iterations() * kDim);
}
BENCHMARK(BM_Hamming);

void BM_HammingRange(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  const auto a = hv::BinVec::random(kDim, rng);
  const auto b = hv::BinVec::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv::hamming_range(a, b, 500, 1000));
  }
}
BENCHMARK(BM_HammingRange);

void BM_Encode(benchmark::State& state) {
  const auto features = static_cast<std::size_t>(state.range(0));
  hv::EncoderConfig config;
  hv::RecordEncoder encoder(features, config);
  util::Xoshiro256 rng(4);
  std::vector<float> sample(features);
  for (auto& v : sample) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sample));
  }
  state.SetItemsProcessed(state.iterations() * features);
}
BENCHMARK(BM_Encode)->Arg(75)->Arg(561)->Arg(784);

void BM_Predict(benchmark::State& state) {
  const auto classes = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(5);
  std::vector<hv::BinVec> encoded;
  std::vector<int> labels;
  for (std::size_t i = 0; i < classes * 8; ++i) {
    encoded.push_back(hv::BinVec::random(kDim, rng));
    labels.push_back(static_cast<int>(i % classes));
  }
  auto model = model::HdcModel::train(encoded, labels, classes, {});
  const auto query = hv::BinVec::random(kDim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(query));
  }
}
BENCHMARK(BM_Predict)->Arg(2)->Arg(12)->Arg(26);

void BM_EncodeInto(benchmark::State& state) {
  // Workspace-reuse variant of BM_Encode: the bit-sliced counter and the
  // output vector persist across iterations, so steady state allocates
  // nothing per sample. The gap to BM_Encode is the allocator cost the
  // serve workers no longer pay.
  const auto features = static_cast<std::size_t>(state.range(0));
  hv::EncoderConfig config;
  hv::RecordEncoder encoder(features, config);
  util::Xoshiro256 rng(4);
  std::vector<float> sample(features);
  for (auto& v : sample) v = static_cast<float>(rng.uniform());
  hv::EncodeWorkspace ws;
  hv::BinVec out;
  for (auto _ : state) {
    encoder.encode_into(sample, out, ws);
    benchmark::DoNotOptimize(out.words().data());
  }
  state.SetItemsProcessed(state.iterations() * features);
}
BENCHMARK(BM_EncodeInto)->Arg(75)->Arg(561)->Arg(784);

void BM_PredictBatch(benchmark::State& state) {
  // Batched inference through the blocked distance-matrix kernel; compare
  // per-query items/s against BM_Predict to see the batching win.
  const auto classes = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(5);
  std::vector<hv::BinVec> encoded;
  std::vector<int> labels;
  for (std::size_t i = 0; i < classes * 8; ++i) {
    encoded.push_back(hv::BinVec::random(kDim, rng));
    labels.push_back(static_cast<int>(i % classes));
  }
  auto model = model::HdcModel::train(encoded, labels, classes, {});
  std::vector<hv::BinVec> queries;
  for (int i = 0; i < 256; ++i) queries.push_back(hv::BinVec::random(kDim, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(queries, 1));
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_PredictBatch)->Arg(2)->Arg(12)->Arg(26);

/// Training sets at two perfbench shapes.
struct TrainingSet {
  std::vector<hv::BinVec> samples;
  std::vector<int> labels;
  std::size_t classes = 0;
};

/// score_bulk's: 128 random class prototypes at D = 16,384 and four copies
/// of each with an eighth of the bits flipped. Its one retraining epoch
/// updates nothing.
TrainingSet score_bulk_set() {
  constexpr std::size_t kClasses = 128;
  constexpr std::size_t kTrainDim = 16384;
  util::Xoshiro256 rng(7);
  TrainingSet set;
  set.classes = kClasses;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto proto = hv::BinVec::random(kTrainDim, rng);
    for (int i = 0; i < 4; ++i) {
      auto sample = proto;
      for (auto& w : sample.mutable_words()) {
        w ^= rng.next() & rng.next() & rng.next();
      }
      set.samples.push_back(std::move(sample));
      set.labels.push_back(static_cast<int>(c));
    }
  }
  return set;
}

/// fleet_tiny's and heal_features': 2,000 PAMAP-shaped samples (5 classes)
/// encoded at D = 4,096. Every retraining epoch updates.
TrainingSet pamap_set() {
  const auto split = data::make_synthetic(
      data::scaled(data::dataset_by_name("PAMAP"), 2000, 1), 0x5eed);
  hv::EncoderConfig config;
  config.dimension = 4096;
  const hv::RecordEncoder encoder(split.train.feature_count(), config);
  return {encoder.encode_all(split.train), split.train.labels,
          split.train.num_classes};
}

void BM_Train(benchmark::State& state, TrainingSet (*make)()) {
  const TrainingSet set = make();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::HdcModel::train(set.samples, set.labels, set.classes, {}));
  }
  state.SetItemsProcessed(state.iterations() * set.samples.size());
}
BENCHMARK_CAPTURE(BM_Train, score_bulk, score_bulk_set)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Train, pamap, pamap_set)->Unit(benchmark::kMillisecond);

void BM_InjectRandom(benchmark::State& state) {
  util::Xoshiro256 rng(6);
  auto vec = hv::BinVec::random(kDim, rng);
  for (auto _ : state) {
    auto words = vec.mutable_words();
    fault::MemoryRegion region{std::as_writable_bytes(words), 1, "hv"};
    benchmark::DoNotOptimize(
        fault::BitFlipInjector::flip_random_bits(region, 1000, rng));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_InjectRandom);

void BM_CrossbarRippleAdd(benchmark::State& state) {
  pim::Crossbar xbar(64, 64);
  std::vector<std::size_t> rows(64);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::size_t scratch_cols[] = {40, 41, 42, 43, 44, 45, 46, 47};
  for (auto _ : state) {
    xbar.ripple_add(0, 8, 16, 30, scratch_cols, 8, rows);
    benchmark::DoNotOptimize(xbar.nor_steps());
  }
}
BENCHMARK(BM_CrossbarRippleAdd);

// Per-ISA kernel microbenchmarks, registered dynamically for every tier
// the host can actually run (scalar is always present; AVX2/AVX-512 appear
// when hardware + OS support them). Names come out as e.g.
// "BM_KernelHamming/avx512" so runs on different hosts stay comparable.
void register_isa_benchmarks() {
  static util::Xoshiro256 rng(7);
  static const auto a = hv::BinVec::random(kDim, rng);
  static const auto b = hv::BinVec::random(kDim, rng);
  static const mem::PlaneArena planes = [] {
    mem::PlaneArena arena(26, kDim);
    for (std::size_t p = 0; p < arena.num_planes(); ++p) {
      arena.store_plane(p, hv::BinVec::random(kDim, rng));
    }
    return arena;
  }();
  // Every dimension below kDim but the middle fifth, as a quarantine of
  // 4 of 20 chunks would leave it.
  static const util::AlignedU64Vec quarantine = [] {
    util::AlignedU64Vec mask(util::words_for_bits(kDim), 0);
    for (std::size_t i = 0; i < kDim; ++i) {
      if (i < 2 * kDim / 5 || i >= 3 * kDim / 5) util::set_bit(mask, i, true);
    }
    return mask;
  }();
  static std::vector<hv::BinVec> queries_store;
  static std::vector<const std::uint64_t*> queries;
  if (queries.empty()) {
    for (int i = 0; i < 32; ++i) {
      queries_store.push_back(hv::BinVec::random(kDim, rng));
    }
    for (const auto& q : queries_store) queries.push_back(q.words().data());
  }

  for (const auto isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                         kernels::Isa::kAvx512}) {
    const auto* ops = kernels::ops_for(isa);
    if (ops == nullptr) continue;
    const std::string suffix = kernels::isa_name(isa);
    const std::size_t words = a.word_count();

    benchmark::RegisterBenchmark(
        ("BM_KernelPopcount/" + suffix).c_str(),
        [ops, words](benchmark::State& state) {
          for (auto _ : state) {
            benchmark::DoNotOptimize(ops->popcount(a.words().data(), words));
          }
          state.SetItemsProcessed(state.iterations() * kDim);
        });

    benchmark::RegisterBenchmark(
        ("BM_KernelHamming/" + suffix).c_str(),
        [ops, words](benchmark::State& state) {
          for (auto _ : state) {
            benchmark::DoNotOptimize(
                ops->hamming(a.words().data(), b.words().data(), words));
          }
          state.SetItemsProcessed(state.iterations() * kDim);
        });

    // The training kernels, one class accumulator of kDim counters.
    benchmark::RegisterBenchmark(
        ("BM_KernelBundleSigned/" + suffix).c_str(),
        [ops](benchmark::State& state) {
          std::vector<std::int32_t> counts(kDim, 0);
          std::int32_t weight = 1;
          for (auto _ : state) {
            ops->bundle_signed(counts.data(), a.words().data(), kDim, weight);
            weight = -weight;  // keeps the counters bounded
            benchmark::DoNotOptimize(counts.data());
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() * kDim);
        });

    benchmark::RegisterBenchmark(
        ("BM_KernelSignPack/" + suffix).c_str(),
        [ops, words](benchmark::State& state) {
          // Counters in [-2, 2]: about a fifth tie and take b's bit.
          std::vector<std::int32_t> counts(kDim);
          for (auto& c : counts) {
            c = static_cast<std::int32_t>(rng.range(-2, 2));
          }
          std::vector<std::uint64_t> out(words);
          for (auto _ : state) {
            ops->sign_pack(counts.data(), kDim, b.words().data(), out.data());
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
          }
          state.SetItemsProcessed(state.iterations() * kDim);
        });

    // The arena matrix unmasked (null mask) and under a quarantine-style
    // mask, at the same shape: the two instantiations of one kernel.
    const std::uint64_t* const masks[] = {nullptr, quarantine.data()};
    for (const std::uint64_t* mask : masks) {
      benchmark::RegisterBenchmark(
          ((mask == nullptr ? "BM_KernelHammingMatrix/"
                            : "BM_KernelHammingMatrixMasked/") +
           suffix)
              .c_str(),
          [ops, mask](benchmark::State& state) {
            std::vector<std::uint32_t> out(queries.size() *
                                           planes.num_planes());
            for (auto _ : state) {
              ops->hamming_matrix_arena(queries.data(), queries.size(),
                                        planes.view(), mask, out.data());
              benchmark::DoNotOptimize(out.data());
            }
            // One "item" = one query/plane Hamming distance.
            state.SetItemsProcessed(state.iterations() * queries.size() *
                                    planes.num_planes());
          });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_isa_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
