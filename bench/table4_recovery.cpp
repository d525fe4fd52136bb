// Table 4 — quality loss with and without the RobustHD self data recovery,
// per dataset, at 2/6/10% error rates.
//
// Protocol: train, inject the attack, then serve several epochs of
// unlabeled inference queries through the RecoveryEngine, and measure the
// final quality loss. Both damage profiles are reported:
//  * random   — uniform flips. At our synthetic geometry the binary HDC
//    model barely notices these (see EXPERIMENTS.md), so there is little
//    for recovery to repair; the engine's gates correctly keep it from
//    touching a healthy model.
//  * clustered — row-hammer-style contiguous damage, the profile the
//    chunk detector localises; this is where adaptive regeneration shows
//    its full effect.

#include "bench_common.hpp"

#include "robusthd/util/csv.hpp"

using namespace robusthd;

namespace {

struct Outcome {
  double without_recovery = 0.0;
  double with_recovery = 0.0;
};

Outcome run_cell(const core::HdcClassifier& trained,
                 std::span<const hv::BinVec> queries,
                 std::span<const int> labels, double clean, double rate,
                 fault::AttackMode mode, std::uint64_t seed) {
  Outcome out;
  util::RunningStats no_rec, with_rec;
  for (std::size_t r = 0; r < bench::repetitions(); ++r) {
    // Without recovery.
    {
      model::HdcModel victim = trained.model();
      util::Xoshiro256 rng(seed + 977 * r);
      auto regions = victim.memory_regions();
      fault::BitFlipInjector::inject(regions, rate, mode, rng);
      no_rec.add(util::quality_loss(clean, victim.evaluate(queries, labels)));
    }
    // With recovery: same injection, then an unlabeled query stream.
    {
      model::HdcModel victim = trained.model();
      util::Xoshiro256 rng(seed + 977 * r);
      auto regions = victim.memory_regions();
      fault::BitFlipInjector::inject(regions, rate, mode, rng);
      model::RecoveryConfig config;
      config.seed = seed + 13 * r;
      model::RecoveryEngine engine(victim, config);
      for (int epoch = 0; epoch < 10; ++epoch) {
        for (const auto& q : queries) engine.observe(q);
      }
      with_rec.add(
          util::quality_loss(clean, victim.evaluate(queries, labels)));
    }
  }
  out.without_recovery = no_rec.mean();
  out.with_recovery = with_rec.mean();
  return out;
}

}  // namespace

int main() {
  bench::header("Table 4: quality loss with/without RobustHD data recovery");
  const double rates[] = {0.02, 0.06, 0.10};

  for (const auto mode :
       {fault::AttackMode::kClustered, fault::AttackMode::kRandom}) {
    const bool clustered = mode == fault::AttackMode::kClustered;
    std::cout << "\n-- " << (clustered ? "clustered (row-hammer) damage"
                                       : "uniform random damage")
              << " --\n";
    util::TextTable table({"Error", "Recovery", "MNIST", "UCIHAR", "ISOLET",
                           "FACE", "PAMAP", "PECAN"});
    util::CsvWriter csv(clustered ? "table4_recovery_clustered.csv"
                                  : "table4_recovery_random.csv",
                        {"dataset", "rate", "without", "with"});

    // outcome[rate][dataset]
    std::vector<std::vector<Outcome>> grid(
        3, std::vector<Outcome>(data::paper_datasets().size()));

    std::size_t d = 0;
    for (const auto& spec : data::paper_datasets()) {
      auto split = bench::load(spec.name);
      auto clf = core::HdcClassifier::train(split.train, {});
      const auto queries = clf.encoder().encode_all(split.test);
      const double clean =
          clf.model().evaluate(queries, split.test.labels);
      std::cout << "  " << spec.name << ": clean "
                << util::pct(clean) << "\n"
                << std::flush;
      for (int r = 0; r < 3; ++r) {
        grid[r][d] = run_cell(clf, queries, split.test.labels, clean,
                              rates[r], mode, 0xab5 + d * 101 + r);
        csv.row(spec.name, rates[r], grid[r][d].without_recovery,
                grid[r][d].with_recovery);
      }
      ++d;
    }

    for (int r = 0; r < 3; ++r) {
      std::vector<std::string> without{util::pct(rates[r], 0), "without"};
      std::vector<std::string> with{util::pct(rates[r], 0), "with"};
      for (std::size_t i = 0; i < grid[r].size(); ++i) {
        without.push_back(util::pct(grid[r][i].without_recovery));
        with.push_back(util::pct(grid[r][i].with_recovery));
      }
      table.add_row(without).add_row(with);
    }
    table.print(std::cout);
  }
  std::cout << "(paper, random damage: without 0.14-3.7%, with <=0.53%)\n";

  // Stress section: at the paper's error rates our binary models barely
  // lose accuracy (see EXPERIMENTS.md), which hides the regeneration in
  // the tables above. Bit-level agreement with the clean stored model is
  // the direct signal: how much of the damage did recovery actually undo?
  std::cout << "\n-- regeneration evidence: stored-bit agreement with the "
               "clean model (UCIHAR, clustered) --\n";
  {
    auto split = bench::load("UCIHAR");
    auto clf = core::HdcClassifier::train(split.train, {});
    const auto queries = clf.encoder().encode_all(split.test);
    const auto clean_model = clf.model();

    util::TextTable table({"Error", "Agreement attacked", "Agreement recovered",
                           "Damage undone"});
    for (const double rate : {0.05, 0.10, 0.15, 0.20}) {
      util::RunningStats before, after;
      for (std::size_t r = 0; r < bench::repetitions(); ++r) {
        model::HdcModel victim = clean_model;
        util::Xoshiro256 rng(0x57e55 + 31 * r + static_cast<int>(rate * 100));
        auto regions = victim.memory_regions();
        fault::BitFlipInjector::inject(regions, rate,
                                       fault::AttackMode::kClustered, rng);
        auto agreement = [&](const model::HdcModel& m) {
          double total = 0.0;
          for (std::size_t c = 0; c < m.num_classes(); ++c) {
            total += hv::similarity(
                m.class_vector(c).planes[0].to_binvec(),
                clean_model.class_vector(c).planes[0].to_binvec());
          }
          return total / static_cast<double>(m.num_classes());
        };
        before.add(agreement(victim));
        model::RecoveryConfig config;
        config.seed = 0x57e55 + 7 * r;
        model::RecoveryEngine engine(victim, config);
        for (int epoch = 0; epoch < 10; ++epoch) {
          for (const auto& q : queries) engine.observe(q);
        }
        after.add(agreement(victim));
      }
      const double undone =
          (after.mean() - before.mean()) / (1.0 - before.mean());
      table.add_row({util::pct(rate, 0), util::pct(before.mean(), 2),
                     util::pct(after.mean(), 2), util::pct(undone, 0)});
    }
    table.print(std::cout);
  }
  return 0;
}
