// Tests of the harness's own metric code.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "answer_check.hpp"
#include "metrics.hpp"
#include "robusthd/util/rng.hpp"

namespace perfbench {
namespace {

namespace rhd = robusthd;

TEST(ExactPercentile, NearestRankOnKnownSamples) {
  std::vector<std::uint32_t> samples;
  for (std::uint32_t v = 100; v >= 1; --v) samples.push_back(v);  // unsorted
  EXPECT_EQ(exact_percentile(samples, 0.50), 50.0);
  EXPECT_EQ(exact_percentile(samples, 0.99), 99.0);
  EXPECT_EQ(exact_percentile(samples, 1.00), 100.0);
  EXPECT_EQ(exact_percentile(samples, 0.001), 1.0);

  std::vector<std::uint32_t> two = {7, 3};
  EXPECT_EQ(exact_percentile(two, 0.50), 3.0);
  EXPECT_EQ(exact_percentile(two, 0.99), 7.0);
}

TEST(ExactPercentile, ResolvesATenPercentShift) {
  // A log2 histogram reports both of these as the same bucket midpoint.
  std::vector<std::uint32_t> base(1000, 10000);
  std::vector<std::uint32_t> slower(1000, 11000);
  EXPECT_DOUBLE_EQ(exact_percentile(base, 0.5) * 1.1,
                   exact_percentile(slower, 0.5));
}

TEST(ExactPercentile, EmptyAndSingle) {
  std::vector<std::uint32_t> empty;
  EXPECT_EQ(exact_percentile(empty, 0.5), 0.0);
  std::vector<std::uint32_t> one = {42};
  EXPECT_EQ(exact_percentile(one, 0.5), 42.0);
  EXPECT_EQ(exact_percentile(one, 0.99), 42.0);
}

TEST(BestDecile, TakesTheDecileOnTheBetterSide) {
  // Ten slices, three of them slowed by host interference.
  const std::vector<double> qps = {100, 98, 101, 40, 99, 103, 30, 100, 50, 97};
  EXPECT_EQ(best_decile(qps, true), 101.0);  // 9th of 10 ascending
  const std::vector<double> latency = {10, 11, 9, 50, 10, 12, 80, 10, 40, 13};
  EXPECT_EQ(best_decile(latency, false), 9.0);  // 1st of 10 ascending
  EXPECT_EQ(best_decile({}, true), 0.0);
  EXPECT_EQ(best_decile({7.0}, false), 7.0);
}

TEST(Ratio, ZeroDenominatorIsZero) {
  EXPECT_EQ(ratio(5.0, 0.0), 0.0);
  EXPECT_EQ(ratio(0.0, 0.0), 0.0);
  EXPECT_EQ(ratio(3.0, 4.0), 0.75);
}

TEST(WindowMean, UsesExactSumsAndSkipsEmptyWindows) {
  rhd::serve::LatencyHistogram::Summary before;
  before.count = 10;
  before.mean_ns = 100.0;
  rhd::serve::LatencyHistogram::Summary after;
  after.count = 30;
  after.mean_ns = 200.0;  // sum 6000, of which 1000 before the window
  EXPECT_DOUBLE_EQ(window_mean_ns(before, after), 250.0);
  EXPECT_EQ(window_mean_ns(after, after), 0.0);
  EXPECT_EQ(window_mean_ns({}, {}), 0.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(ResidualDamage, CountsFlippedBitsOfAHandBuiltModel) {
  rhd::util::Xoshiro256 rng(7);
  constexpr std::size_t kDim = 130;  // a ragged last word
  std::vector<rhd::model::ClassVector> classes(3);
  for (auto& c : classes) {
    c.planes.push_back(rhd::hv::BinVec::random(kDim, rng));
  }
  const auto clean = rhd::model::HdcModel::from_planes(classes, 1);

  EXPECT_EQ(differing_bits(clean, clean), 0u);
  EXPECT_EQ(residual_damage_frac(clean, clean), 0.0);

  auto damaged = clean;
  damaged.class_vector(0).planes[0].flip(0);
  damaged.class_vector(0).planes[0].flip(129);
  damaged.class_vector(2).planes[0].flip(64);
  damaged.class_vector(2).planes[0].flip(65);
  damaged.class_vector(2).planes[0].flip(65);  // flipped back: no damage
  EXPECT_EQ(differing_bits(damaged, clean), 3u);
  EXPECT_DOUBLE_EQ(residual_damage_frac(damaged, clean), 3.0 / (3.0 * kDim));
}

TEST(AnswerCheck, CatchesAWrongFirstAnswerAndALaterDisagreement) {
  rhd::util::Xoshiro256 rng(11);
  constexpr std::size_t kDim = 512;
  std::vector<rhd::model::ClassVector> classes(4);
  for (auto& c : classes) c.planes.push_back(rhd::hv::BinVec::random(kDim, rng));
  std::vector<rhd::hv::BinVec> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(rhd::hv::BinVec::random(kDim, rng));
  }
  rhd::serve::ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  rhd::serve::Server server(rhd::model::HdcModel::from_planes(classes, 1),
                            config);
  const auto model = server.current_model();
  const std::uint64_t version = server.stats().model_version;
  const auto right = [&](std::size_t q) { return model->predict(queries[q]); };
  const auto wrong = [&](std::size_t q) { return (right(q) + 1) % 4; };

  AnswerCheck ok(server, queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ok.note(q, right(q), version);
    ok.note(q, right(q), version);
  }
  ok.finish();
  EXPECT_EQ(ok.summary().mismatches, 0u);
  EXPECT_EQ(ok.summary().answers, 2 * queries.size());

  AnswerCheck first_wrong(server, queries);  // caught in finish()
  first_wrong.note(0, wrong(0), version);
  first_wrong.note(0, wrong(0), version);
  EXPECT_EQ(first_wrong.summary().mismatches, 0u);
  first_wrong.finish();
  EXPECT_GT(first_wrong.summary().mismatches, 0u);

  AnswerCheck later_wrong(server, queries);  // caught when noted
  later_wrong.note(1, right(1), version);
  later_wrong.note(1, wrong(1), version);
  EXPECT_EQ(later_wrong.summary().mismatches, 1u);
  later_wrong.finish();
  EXPECT_EQ(later_wrong.summary().mismatches, 1u);
  server.shutdown();
}

TEST(ResultJson, EveryMetricWithItsUnitAndNothingElse) {
  Result result;
  result.attempted = 12;
  result.failed = 1;
  result.values["throughput_qps"] = 1234.5;
  for (const bool trace : {false, true}) {
    const std::string json = result_json(result, trace);
    EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 12, "
                         "\"failed\": 1, \"metrics\": {",
                         0),
              0u);
    std::size_t expected = 0;
    for (const auto& spec : metric_catalogue()) {
      const std::string key = std::string("\"") + spec.name + "\": {";
      const auto at = json.find(key);
      if (spec.end_to_end == trace) {
        EXPECT_EQ(at, std::string::npos) << spec.name;
        continue;
      }
      ++expected;
      ASSERT_NE(at, std::string::npos) << spec.name;
      const std::string entry = json.substr(at, json.find('}', at) - at + 1);
      EXPECT_NE(entry.find(std::string("\"unit\": \"") + spec.unit + "\"}"),
                std::string::npos)
          << entry;
    }
    std::size_t units = 0;
    for (auto at = json.find("\"unit\""); at != std::string::npos;
         at = json.find("\"unit\"", at + 1)) {
      ++units;
    }
    EXPECT_EQ(units, expected);
  }
  EXPECT_NE(result_json(result, false).find(
                "\"throughput_qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}"),
            std::string::npos);
}

TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_SPEC);
  ASSERT_TRUE(in) << PERFBENCH_SPEC;
  std::stringstream text;
  text << in.rdbuf();
  const std::string spec = text.str();
  std::size_t listed = 0;
  for (auto at = spec.find("\"unit\""); at != std::string::npos;
       at = spec.find("\"unit\"", at + 1)) {
    ++listed;
  }
  EXPECT_EQ(listed, metric_catalogue().size());
  const auto per_layer = spec.find("\"per_layer\"");
  ASSERT_NE(per_layer, std::string::npos);
  for (const auto& m : metric_catalogue()) {
    const std::string entry = std::string("{\"name\": \"") + m.name +
                              "\", \"unit\": \"" + m.unit + "\"";
    const auto at = spec.find(entry);
    ASSERT_NE(at, std::string::npos) << m.name;
    EXPECT_EQ(at < per_layer, m.end_to_end) << m.name;
  }
}

}  // namespace
}  // namespace perfbench
