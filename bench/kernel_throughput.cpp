// Kernel-layer throughput bench: measures the SIMD similarity kernels
// against the portable scalar reference and the batched arena prediction
// path against the per-pair baselines it replaced.
//
// Emits one machine-readable JSON line to stdout and to BENCH_kernels.json
// (next to the binary):
//
//   {"bench":"kernel_throughput","isa":"avx512",
//    "hamming_gbits_s":{"scalar":...,"avx2":...,"avx512":...},
//    "matrix_gdist_s":{"scalar":...,...},
//    "batch_pred_per_s":...,"scalar_pairwise_pred_per_s":...,
//    "batch_speedup":...,"wordops_per_pred":...,
//    "arena_vs_pairwise":{...}}
//
// Two gates, each exiting nonzero when missed:
//
//   * batch_speedup: batched arena prediction (active ISA) over per-pair
//     scalar-kernel prediction, both measured here on the same model and
//     query stream. Must reach 2x whenever a SIMD tier is active (the
//     scalar tier only has blocking to offer and reads ~1x).
//   * arena_vs_pairwise: batched arena prediction on a model deliberately
//     sized past L2 against a loop that scores every (query, class) pair
//     with kernels::hamming on the active ISA and takes the argmin. The
//     pair loop re-streams the whole model once per query; the arena
//     kernel streams each L2-sized tile once per query block. On an
//     AVX-512 host the speedup must reach ROBUSTHD_KT_ARENA_GATE (default
//     2.0: 2.93-3.73x over 10 Release runs on a 4-vCPU AVX-512 Xeon, and
//     0.81-1.01x for a predict_batch that scores one query per untiled
//     kernel call).
//
// wordops_per_pred is pim::hdc_search_wordops for the small shape, tying
// the measured kernels to the analytic GPU/PIM cost models
// (docs/performance.md).
//
// Knobs: ROBUSTHD_KT_DIM (default 10000), ROBUSTHD_KT_CLASSES (26),
// ROBUSTHD_KT_BATCH (256), ROBUSTHD_KT_MS (per-measurement budget, 300),
// ROBUSTHD_KT_ARENA_DIM (262144), ROBUSTHD_KT_ARENA_CLASSES (128),
// ROBUSTHD_KT_ARENA_BATCH (256), ROBUSTHD_KT_ARENA_GATE (0 disables).

#include <chrono>
#include <cstdint>
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace robusthd {
namespace {

using Clock = std::chrono::steady_clock;

/// Floor for batch_speedup on SIMD hosts (docs/performance.md).
constexpr double kBatchGate = 2.0;
/// Default floor for arena_vs_pairwise.arena_speedup on AVX-512 hosts.
constexpr double kArenaGate = 2.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` repeatedly for at least `budget_s` seconds (after one
/// untimed warmup call) and returns iterations per second.
template <typename Body>
double measure_rate(double budget_s, Body&& body) {
  body();  // warmup: page in, settle dispatch
  std::size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++iters;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  return static_cast<double>(iters) / elapsed;
}

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) return std::atof(v);
  return fallback;
}

/// Per-pair prediction: one `ops.hamming` scan per (query, class) pair and
/// the argmin — the pre-kernel predict() inner loop. Returns the last
/// prediction so the work cannot be optimised away.
int pairwise_predict(const kernels::Ops& ops,
                     const std::vector<const std::uint64_t*>& queries,
                     const std::vector<const std::uint64_t*>& planes,
                     std::size_t words) {
  int last = -1;
  for (const auto* query : queries) {
    std::size_t best = 0;
    std::size_t best_d = SIZE_MAX;
    for (std::size_t c = 0; c < planes.size(); ++c) {
      const std::size_t d = ops.hamming(query, planes[c], words);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    last = static_cast<int>(best);
  }
  return last;
}

int run() {
  const std::size_t dim = bench::env_size("ROBUSTHD_KT_DIM", 10000);
  const std::size_t classes = bench::env_size("ROBUSTHD_KT_CLASSES", 26);
  const std::size_t batch = bench::env_size("ROBUSTHD_KT_BATCH", 256);
  const double budget_s =
      static_cast<double>(bench::env_size("ROBUSTHD_KT_MS", 300)) / 1000.0;
  const std::size_t words = util::words_for_bits(dim);
  const kernels::Isa isa = kernels::active_isa();

  bench::header("kernel throughput (SIMD dispatch vs scalar reference)");
  std::cout << "active isa: " << kernels::isa_name(isa) << "  dim=" << dim
            << " classes=" << classes << " batch=" << batch << "\n";

  util::Xoshiro256 rng(0x51ead);
  hv::CounterStore counters(classes, dim);
  for (std::size_t c = 0; c < classes; ++c) {
    for (int i = 0; i < 4; ++i) counters.row(c).add(hv::BinVec::random(dim, rng));
  }
  const auto model = model::HdcModel::from_accumulators(counters, 1);
  std::vector<const std::uint64_t*> planes;
  for (std::size_t c = 0; c < classes; ++c) {
    planes.push_back(model.plane_words(c, 0).data());
  }
  std::vector<hv::BinVec> queries_store;
  std::vector<const std::uint64_t*> queries;
  for (std::size_t q = 0; q < batch; ++q) {
    queries_store.push_back(hv::BinVec::random(dim, rng));
  }
  for (const auto& q : queries_store) queries.push_back(q.words().data());

  // Per-ISA raw kernel throughput: pairwise Hamming (Gbit/s of compared
  // dimensions) and the arena distance matrix (G distances/s worth of
  // query x plane pairs).
  std::ostringstream hamming_json, matrix_json;
  hamming_json << "{";
  matrix_json << "{";
  bool first = true;
  for (const auto tier : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                          kernels::Isa::kAvx512}) {
    const auto* ops = kernels::ops_for(tier);
    if (ops == nullptr) continue;

    const double hamming_rate = measure_rate(budget_s, [&] {
      volatile std::size_t sink =
          ops->hamming(queries[0], planes[0], words);
      (void)sink;
    });
    const double gbits = hamming_rate * static_cast<double>(dim) / 1.0e9;

    std::vector<std::uint32_t> out(batch * classes);
    const double matrix_rate = measure_rate(budget_s, [&] {
      ops->hamming_matrix_arena(queries.data(), batch, model.arena().view(),
                                nullptr, out.data());
    });
    const double gdist = matrix_rate * static_cast<double>(batch) *
                         static_cast<double>(classes) / 1.0e9;

    std::cout << "  " << kernels::isa_name(tier) << ": hamming "
              << gbits << " Gbit/s, matrix " << gdist << " Gdist/s\n";
    const char* sep = first ? "" : ",";
    hamming_json << sep << "\"" << kernels::isa_name(tier) << "\":" << gbits;
    matrix_json << sep << "\"" << kernels::isa_name(tier) << "\":" << gdist;
    first = false;
  }
  hamming_json << "}";
  matrix_json << "}";

  // End-to-end prediction: batched arena path (active ISA) vs per-pair
  // prediction pinned to the scalar kernel table.
  const double batch_rate = measure_rate(budget_s, [&] {
    volatile int sink = model.predict_batch(queries_store, 1).back();
    (void)sink;
  });
  const double batch_pred_per_s = batch_rate * static_cast<double>(batch);

  const auto& scalar = *kernels::ops_for(kernels::Isa::kScalar);
  const double scalar_rate = measure_rate(budget_s, [&] {
    volatile int sink = pairwise_predict(scalar, queries, planes, words);
    (void)sink;
  });
  const double scalar_pred_per_s = scalar_rate * static_cast<double>(batch);
  const double speedup =
      scalar_pred_per_s > 0.0 ? batch_pred_per_s / scalar_pred_per_s : 0.0;
  const bool batch_gate_enforced = isa != kernels::Isa::kScalar;

  std::cout << "  batched (" << kernels::isa_name(isa)
            << "): " << batch_pred_per_s << " pred/s\n"
            << "  per-pair scalar baseline: " << scalar_pred_per_s
            << " pred/s\n"
            << "  speedup: " << speedup << "x (gate " << kBatchGate << "x, "
            << (batch_gate_enforced ? "enforced" : "advisory") << ")\n";

  // ---- arena vs per-pair at an L2-exceeding shape -----------------------
  // The small default shape above fits in L2; this section sizes the model
  // well past it (default 128 classes x 262144 dims = a 4 MiB model that
  // the per-pair loop re-streams from L3 once per query) so the arena
  // kernel's tile reuse shows up as wall-clock. Both sides run the active
  // ISA's kernels over the same arena rows.
  const std::size_t a_dim = bench::env_size("ROBUSTHD_KT_ARENA_DIM", 262144);
  const std::size_t a_classes =
      bench::env_size("ROBUSTHD_KT_ARENA_CLASSES", 128);
  const std::size_t a_batch = bench::env_size("ROBUSTHD_KT_ARENA_BATCH", 256);
  const double gate = env_double("ROBUSTHD_KT_ARENA_GATE", kArenaGate);

  std::vector<model::ClassVector> a_planes(a_classes);
  for (auto& cv : a_planes) cv.planes.push_back(hv::BinVec::random(a_dim, rng));
  const auto a_model = model::HdcModel::from_planes(a_planes, 1);
  a_planes.clear();
  std::vector<const std::uint64_t*> a_rows;
  for (std::size_t c = 0; c < a_classes; ++c) {
    a_rows.push_back(a_model.plane_words(c, 0).data());
  }
  std::vector<hv::BinVec> a_queries;
  std::vector<const std::uint64_t*> a_query_ptrs;
  for (std::size_t q = 0; q < a_batch; ++q) {
    a_queries.push_back(hv::BinVec::random(a_dim, rng));
  }
  for (const auto& q : a_queries) a_query_ptrs.push_back(q.words().data());

  // Three alternating passes per side, best-of: on a shared host a single
  // timed window can absorb a neighbor's burst, and the gate judges the
  // paired ratio — best-of keeps one unlucky window from flaking it.
  const auto& active = kernels::ops();
  const std::size_t a_words = util::words_for_bits(a_dim);
  double pairwise_rate = 0.0;
  double arena_rate = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    pairwise_rate = std::max(pairwise_rate, measure_rate(budget_s, [&] {
                      volatile int sink = pairwise_predict(
                          active, a_query_ptrs, a_rows, a_words);
                      (void)sink;
                    }));
    arena_rate = std::max(arena_rate, measure_rate(budget_s, [&] {
                   volatile int sink =
                       a_model.predict_batch(a_queries, 1).back();
                   (void)sink;
                 }));
  }

  const double pairwise_pred_per_s =
      pairwise_rate * static_cast<double>(a_batch);
  const double arena_pred_per_s = arena_rate * static_cast<double>(a_batch);
  const double arena_speedup =
      pairwise_pred_per_s > 0.0 ? arena_pred_per_s / pairwise_pred_per_s : 0.0;
  // Only an AVX-512 host is held to the gate: the floor was calibrated on
  // one, and narrower ISAs bottleneck on popcount before the memory system.
  const bool gate_enforced = gate > 0.0 && isa == kernels::Isa::kAvx512;

  std::cout << "  arena vs per-pair (" << a_classes << " classes x " << a_dim
            << " dims, batch " << a_batch << ", "
            << a_model.arena().bytes() / (1024.0 * 1024.0) << " MiB arena, "
            << "tile " << a_model.arena().tile_words() << " words, hugepage="
            << (a_model.arena().hugepage_backed() ? "yes" : "no") << ")\n"
            << "    per-pair: " << pairwise_pred_per_s << " pred/s\n"
            << "    arena:    " << arena_pred_per_s << " pred/s\n"
            << "    arena speedup: " << arena_speedup << "x (gate "
            << gate << "x, " << (gate_enforced ? "enforced" : "advisory")
            << ")\n";

  std::ostringstream json;
  json << "{\"bench\":\"kernel_throughput\""
       << ",\"isa\":\"" << kernels::isa_name(isa) << "\""
       << ",\"dim\":" << dim << ",\"classes\":" << classes
       << ",\"batch\":" << batch
       << ",\"hamming_gbits_s\":" << hamming_json.str()
       << ",\"matrix_gdist_s\":" << matrix_json.str()
       << ",\"batch_pred_per_s\":" << batch_pred_per_s
       << ",\"scalar_pairwise_pred_per_s\":" << scalar_pred_per_s
       << ",\"batch_speedup\":" << speedup
       << ",\"batch_gate\":" << kBatchGate
       << ",\"batch_gate_enforced\":"
       << (batch_gate_enforced ? "true" : "false") << ",\"wordops_per_pred\":"
       << pim::hdc_search_wordops(dim, classes)
       << ",\"arena_vs_pairwise\":{\"dim\":" << a_dim
       << ",\"classes\":" << a_classes << ",\"batch\":" << a_batch
       << ",\"arena_bytes\":" << a_model.arena().bytes()
       << ",\"tile_words\":" << a_model.arena().tile_words()
       << ",\"hugepage\":" << (a_model.arena().hugepage_backed() ? "true"
                                                                 : "false")
       << ",\"pairwise_pred_per_s\":" << pairwise_pred_per_s
       << ",\"arena_pred_per_s\":" << arena_pred_per_s
       << ",\"arena_speedup\":" << arena_speedup << ",\"gate\":" << gate
       << ",\"gate_enforced\":" << (gate_enforced ? "true" : "false") << "}}";
  std::cout << json.str() << "\n";
  std::ofstream("BENCH_kernels.json") << json.str() << "\n";

  int status = 0;
  if (batch_gate_enforced && speedup < kBatchGate) {
    std::cerr << "FAIL: batch speedup " << speedup << "x below gate "
              << kBatchGate << "x\n";
    status = 1;
  }
  if (gate_enforced && arena_speedup < gate) {
    std::cerr << "FAIL: arena speedup over per-pair " << arena_speedup
              << "x below gate " << gate << "x\n";
    status = 1;
  }
  return status;
}

}  // namespace
}  // namespace robusthd

int main() { return robusthd::run(); }
