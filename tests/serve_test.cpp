// Tests for the serving runtime: queue semantics, ring semantics,
// deterministic correctness vs direct inference, drain-on-shutdown,
// multi-producer stress, and scrubber equivalence with the offline
// recovery engine. This binary is also the TSan gate for the repo's
// concurrency code (see .github/workflows/ci.yml).
#include "robusthd/serve/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/core/serialize.hpp"
#include "robusthd/data/synthetic.hpp"
#include "robusthd/fault/injector.hpp"
#include "robusthd/hv/encoder.hpp"
#include "robusthd/model/recovery.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::serve {
namespace {

constexpr std::size_t kDim = 2000;
constexpr std::size_t kClasses = 5;

/// Same tight-cluster geometry recovery_test uses: queries agree with
/// their prototype on ~96% of dimensions.
struct World {
  std::vector<hv::BinVec> queries;
  std::vector<int> labels;
  model::HdcModel model;
};

World make_world(std::uint64_t seed, std::size_t queries_per_class = 30) {
  World w;
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> prototypes;
  std::vector<hv::BinVec> train;
  std::vector<int> train_labels;
  for (std::size_t c = 0; c < kClasses; ++c) {
    prototypes.push_back(hv::BinVec::random(kDim, rng));
  }
  auto noisy = [&](std::size_t c) {
    auto v = prototypes[c];
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(0.04)) v.flip(d);
    }
    return v;
  };
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 20; ++i) {
      train.push_back(noisy(c));
      train_labels.push_back(static_cast<int>(c));
    }
    for (std::size_t i = 0; i < queries_per_class; ++i) {
      w.queries.push_back(noisy(c));
      w.labels.push_back(static_cast<int>(c));
    }
  }
  w.model = model::HdcModel::train(train, train_labels, kClasses, {});
  return w;
}

/// Same answer, bit for bit: prediction, confidence bits, flags, version.
void expect_same_answer(const Response& got, const Response& want,
                        std::size_t i) {
  EXPECT_EQ(got.predicted, want.predicted) << "query " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.confidence),
            std::bit_cast<std::uint64_t>(want.confidence))
      << "query " << i;
  EXPECT_EQ(got.trusted, want.trusted) << "query " << i;
  EXPECT_EQ(got.degraded, want.degraded) << "query " << i;
  EXPECT_EQ(got.abstained, want.abstained) << "query " << i;
  EXPECT_EQ(got.model_version, want.model_version) << "query " << i;
}

/// answer_now on a copy of `queries`: true when it answered, leaving the
/// answers in `lane`.
bool answer_copies(Server& server, Server::Lane& lane,
                   std::span<const hv::BinVec> queries) {
  std::vector<hv::BinVec> batch(queries.begin(), queries.end());
  return server.answer_now(lane, batch);
}

// ---------------------------------------------------------------- queue --

TEST(RequestQueue, FifoAndBounds) {
  RequestQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(queue.try_push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(queue.try_push(overflow));
  EXPECT_EQ(overflow, 99);  // untouched on failure
  EXPECT_EQ(queue.depth(), 4u);
  // Batch pops are FIFO, never move more than asked for, and append.
  std::vector<int> out{-1};
  EXPECT_EQ(queue.pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{-1, 0, 1, 2}));
  for (int i = 4; i < 7; ++i) {  // the pop freed its three slots
    int v = i;
    EXPECT_TRUE(queue.try_push(v));
  }
  EXPECT_FALSE(queue.try_push(overflow));
  out.clear();
  EXPECT_EQ(queue.try_pop_batch(out, 8), 4u);
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5, 6}));
  EXPECT_EQ(queue.try_pop_batch(out, 8), 0u);  // empty: returns at once
  EXPECT_EQ(out.size(), 4u);
}

TEST(RequestQueue, BypassOnlyWhileOpenAndEmptyAndCloseWaitsItOut) {
  RequestQueue<int> queue(8);
  ASSERT_TRUE(queue.try_bypass());
  queue.end_bypass();
  int v = 1;
  ASSERT_TRUE(queue.try_push(v));
  EXPECT_FALSE(queue.try_bypass()) << "a queued item must not be overtaken";
  std::vector<int> out;
  ASSERT_EQ(queue.try_pop_batch(out, 8), 1u);

  // A bypass granted before the close outlives it, and wait_bypasses()
  // returns only once it has ended; none is granted after the close.
  ASSERT_TRUE(queue.try_bypass());
  queue.close();
  EXPECT_FALSE(queue.try_bypass());
  std::atomic<bool> waited{false};
  std::thread closer([&] {
    queue.wait_bypasses();
    waited.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waited.load());
  queue.end_bypass();
  closer.join();
  EXPECT_TRUE(waited.load());
}

TEST(RequestQueue, CloseDrainsThenExhausts) {
  RequestQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    ASSERT_TRUE(queue.try_push(v));
  }
  queue.close();
  int rejected = 7;
  EXPECT_FALSE(queue.try_push(rejected));
  // Accepted items drain in order...
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 3), 3u);
  EXPECT_EQ(queue.pop_batch(out, 3), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  // ...then the pops report exhaustion instead of blocking.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch(out, 3), 0u);
  EXPECT_FALSE(queue.pop_for(std::chrono::seconds(5)).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(out.size(), 5u);
}

TEST(RequestQueue, PopForTimesOut) {
  RequestQueue<int> queue(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(15));
}

TEST(RequestQueue, BlockedProducerWakesOnPop) {
  RequestQueue<int> queue(2);
  for (int v : {1, 2}) {
    int item = v;
    ASSERT_TRUE(queue.try_push(item));
  }
  std::vector<std::thread> producers;
  for (int v : {3, 4}) {
    producers.emplace_back([&queue, v] {
      int item = v;
      queue.push(std::move(item));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  // One batch pop freed two slots, so it must wake both blocked
  // producers, not just one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (queue.depth() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.depth(), 2u);
  queue.close();  // frees a producer left blocked, so the joins return
  for (auto& t : producers) t.join();
  out.clear();
  queue.pop_batch(out, 2);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{3, 4}));
}

// ----------------------------------------------------------------- ring --

TEST(TrustRing, FifoSingleThread) {
  util::Xoshiro256 rng(1);
  TrustRing ring(8);
  std::vector<hv::BinVec> sent;
  for (int i = 0; i < 8; ++i) {
    sent.push_back(hv::BinVec::random(64, rng));
    ASSERT_TRUE(ring.push(sent.back(), (i % 2) == 0));
  }
  // A full ring refuses without touching the caller's query or any entry.
  const hv::BinVec refused = hv::BinVec::random(64, rng);
  const hv::BinVec refused_copy = refused;
  EXPECT_FALSE(ring.push(refused, true));
  EXPECT_EQ(refused, refused_copy);
  TrustedQuery out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out.query, sent[static_cast<std::size_t>(i)]);
    EXPECT_EQ(out.suspect, (i % 2) == 0);  // the taint tag rides along
  }
  EXPECT_FALSE(ring.pop(out));  // empty

  // Wrap-around: ten laps at shifting fill levels. Bits and tags survive,
  // and once every cell and the consumer hold a buffer the same
  // capacity + 1 buffers circulate — a warm ring allocates nothing.
  std::vector<const std::uint64_t*> buffers;
  std::size_t next = 0;  // index of the next entry to pop
  sent.clear();
  std::vector<bool> tags;
  for (int lap = 0; lap < 10; ++lap) {
    const std::size_t fill = 1 + static_cast<std::size_t>(lap) % 8;
    for (std::size_t i = 0; i < fill; ++i) {
      sent.push_back(hv::BinVec::random(64, rng));
      tags.push_back(rng.bernoulli(0.5));
      ASSERT_TRUE(ring.push(sent.back(), tags.back()));
    }
    while (ring.pop(out)) {
      EXPECT_EQ(out.query, sent[next]) << next;
      EXPECT_EQ(out.suspect, tags[next]) << next;
      ++next;
      const auto* data = out.query.words().data();
      if (std::find(buffers.begin(), buffers.end(), data) == buffers.end()) {
        buffers.push_back(data);
      }
    }
  }
  EXPECT_EQ(next, sent.size());
  EXPECT_LE(buffers.size(), ring.capacity() + 1);
}

TEST(TrustRing, MultiProducerNoLossNoDuplication) {
  // A small ring: 2,000 entries lap it ~30 times, so producers race each
  // other for cells and contend with a full ring throughout.
  TrustRing ring(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  const auto tainted = [](std::size_t id) { return id % 3 == 0; };
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, &tainted, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Encode (producer, index) in the first bits of the vector.
        hv::BinVec v(64);
        const auto id = static_cast<std::size_t>(p * kPerProducer + i);
        for (std::size_t b = 0; b < 32; ++b) v.set(b, (id >> b) & 1);
        while (!ring.push(v, tainted(id))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::vector<const std::uint64_t*> buffers;
  int bad_tags = 0;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    TrustedQuery out;
    int drained = 0;
    while (drained < kProducers * kPerProducer) {
      if (ring.pop(out)) {
        std::size_t id = 0;
        for (std::size_t b = 0; b < 32; ++b) {
          id |= static_cast<std::size_t>(out.query.get(b)) << b;
        }
        ++seen[id];
        if (out.suspect != tainted(id)) ++bad_tags;
        const auto* data = out.query.words().data();
        if (std::find(buffers.begin(), buffers.end(), data) ==
            buffers.end()) {
          buffers.push_back(data);
        }
        ++drained;
      } else {
        std::this_thread::yield();
      }
    }
    done.store(true);
  });
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_TRUE(done.load());
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int n) { return n == 1; }));
  EXPECT_EQ(bad_tags, 0);
  // Buffers are copied into and swapped out of the cells, never
  // reallocated: the consumer sees at most one per cell plus its own.
  EXPECT_LE(buffers.size(), ring.capacity() + 1);
}

// --------------------------------------------------------------- server --

TEST(Server, BitIdenticalToDirectInference) {
  auto world = make_world(21);
  const auto reference = world.model;  // the server takes ownership

  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;  // snapshots never change
  Server server(world.model, config);

  const auto responses = server.predict_all(world.queries);
  ASSERT_EQ(responses.size(), world.queries.size());
  for (std::size_t i = 0; i < world.queries.size(); ++i) {
    EXPECT_EQ(responses[i].predicted, reference.predict(world.queries[i]))
        << "query " << i;
    EXPECT_EQ(responses[i].model_version, 0u);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, world.queries.size());
  EXPECT_EQ(stats.completed, world.queries.size());
  EXPECT_EQ(stats.rejected, 0u);

  // answer_now runs the workers' batch code on this thread: the same
  // answers, bit for bit, and each call counts as one batch with no queue
  // wait, whose end-to-end time is its service time.
  server.drain();
  const auto before = server.metrics();
  Server::Lane lane;
  std::size_t batches = 0;
  for (std::size_t first = 0; first < world.queries.size();
       first += config.max_batch) {
    const std::size_t n =
        std::min(config.max_batch, world.queries.size() - first);
    ASSERT_TRUE(answer_copies(
        server, lane, std::span(world.queries).subspan(first, n)));
    ++batches;
    ASSERT_EQ(lane.responses().size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      expect_same_answer(lane.responses()[j], responses[first + j],
                         first + j);
    }
  }
  const ServerStats inline_stats(server.metrics() - before);
  EXPECT_EQ(inline_stats.submitted, world.queries.size());
  EXPECT_EQ(inline_stats.completed, world.queries.size());
  EXPECT_EQ(inline_stats.batches, batches);
  EXPECT_EQ(inline_stats.queue_wait.count, world.queries.size());
  EXPECT_EQ(inline_stats.queue_wait.mean_ns, 0.0);
  EXPECT_EQ(inline_stats.end_to_end.mean_ns, inline_stats.service.mean_ns);
  // Larger than one batch: a worker would not take it in one go either.
  EXPECT_FALSE(answer_copies(
      server, lane,
      std::span(world.queries).first(config.max_batch + 1)));
  EXPECT_EQ(ServerStats(server.metrics() - before).submitted,
            world.queries.size());
}

TEST(Server, ManyWorkersStayBitIdentical) {
  auto world = make_world(22);
  const auto reference = world.model;
  const auto expected = reference.predict_batch(world.queries, 1);

  ServerConfig config;
  config.worker_threads = 4;
  config.max_batch = 8;
  config.enable_recovery = false;
  Server server(world.model, config);

  const auto responses = server.predict_all(world.queries);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].predicted, expected[i]) << "query " << i;
  }
}

TEST(Server, SubmitFeaturesEncodesServerSide) {
  // Train a model on server-side-encodable feature vectors and check the
  // feature path (worker encodes through its persistent workspace) gives
  // exactly the predictions of encode-then-submit.
  const std::size_t features = 8;
  hv::EncoderConfig enc_config;
  enc_config.dimension = 1500;
  auto encoder = std::make_shared<hv::RecordEncoder>(features, enc_config);

  util::Xoshiro256 rng(29);
  std::vector<std::vector<float>> samples;
  std::vector<hv::BinVec> encoded;
  std::vector<int> labels;
  for (int c = 0; c < 3; ++c) {
    std::vector<float> center(features);
    for (auto& f : center) f = static_cast<float>(rng.uniform());
    for (int i = 0; i < 25; ++i) {
      std::vector<float> s(features);
      for (std::size_t k = 0; k < features; ++k) {
        s[k] = std::clamp(
            center[k] + static_cast<float>(rng.uniform(-0.05, 0.05)), 0.0f,
            1.0f);
      }
      encoded.push_back(encoder->encode(s));
      samples.push_back(std::move(s));
      labels.push_back(c);
    }
  }
  auto model = model::HdcModel::train(encoded, labels, 3, {});
  const auto reference = model;

  ServerConfig config;
  config.worker_threads = 2;
  config.max_batch = 8;
  config.enable_recovery = false;
  config.encoder = encoder;
  Server server(std::move(model), config);

  std::vector<std::future<Response>> futures;
  for (const auto& s : samples) futures.push_back(server.submit_features(s));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(futures[i].get().predicted, reference.predict(encoded[i]))
        << "sample " << i;
  }
}

TEST(Server, SubmitFeaturesWithoutEncoderThrows) {
  auto world = make_world(24);
  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  Server server(world.model, config);
  EXPECT_THROW((void)server.submit_features({0.5f, 0.5f}), std::logic_error);
}

TEST(Server, ShutdownDrainsQueue) {
  auto world = make_world(23);
  ServerConfig config;
  config.worker_threads = 2;
  config.queue_capacity = 64;
  config.enable_recovery = false;
  Server server(world.model, config);

  std::vector<std::future<Response>> futures;
  for (const auto& q : world.queries) futures.push_back(server.submit(q));
  server.shutdown();  // must fulfil every accepted promise

  std::size_t answered = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto response = f.get();  // throws if the promise was broken
    EXPECT_GE(response.predicted, 0);
    ++answered;
  }
  EXPECT_EQ(answered, world.queries.size());
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Post-shutdown submissions are rejected with a visible error.
  auto late = server.submit(world.queries[0]);
  EXPECT_THROW(late.get(), std::runtime_error);
}

TEST(Server, MultiProducerStressNoLostNoDuplicated) {
  auto world = make_world(24);
  const auto expected = world.model.predict_batch(world.queries, 1);

  ServerConfig config;
  config.worker_threads = 3;
  config.queue_capacity = 32;  // small: exercises producer backpressure
  config.max_batch = 4;
  config.enable_recovery = false;
  Server server(world.model, config);

  constexpr int kProducers = 4;
  constexpr int kRounds = 5;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<std::size_t, std::future<Response>>> futures;
        for (std::size_t i = static_cast<std::size_t>(p);
             i < world.queries.size(); i += kProducers) {
          futures.emplace_back(i, server.submit(world.queries[i]));
        }
        for (auto& [index, future] : futures) {
          const auto response = future.get();  // exactly one response each
          ++answered;
          if (response.predicted != expected[index]) ++mismatches;
        }
      }
    });
  }
  for (auto& t : producers) t.join();

  // ceil(queries / producers) per producer per round, summed exactly.
  std::uint64_t expected_total = 0;
  for (int p = 0; p < kProducers; ++p) {
    expected_total += kRounds * ((world.queries.size() -
                                  static_cast<std::size_t>(p) + kProducers -
                                  1) /
                                 kProducers);
  }
  EXPECT_EQ(answered.load(), expected_total);
  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

// ------------------------------------------------------------- scrubber --

model::RecoveryConfig generous_recovery() {
  model::RecoveryConfig config;
  config.max_updates_per_chunk = 0;
  config.repair_balance_slack = 4;
  config.max_total_substitution_fraction = 0.5;
  return config;
}

TEST(Scrubber, ReproducesOfflineRecoveryEngine) {
  auto world = make_world(25);
  util::Xoshiro256 attack_rng(26);
  auto regions = world.model.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.15,
                                 fault::AttackMode::kClustered, attack_rng);
  const auto attacked = world.model;

  // Offline reference: the paper's experiment loop.
  model::HdcModel offline_model = attacked;
  model::RecoveryEngine offline(offline_model, generous_recovery());
  constexpr int kEpochs = 6;
  for (int e = 0; e < kEpochs; ++e) {
    for (const auto& q : world.queries) offline.observe(q);
  }

  // Serve-side: same queries, same order, through the ring + thread.
  ModelSnapshot snapshot(attacked);
  ScrubberConfig config;
  config.recovery = generous_recovery();
  config.ring_capacity = 64;  // deliberately small: exercises full-ring
  util::MetricsRegistry metrics;
  Scrubber scrubber(snapshot, config, metrics);
  scrubber.start();
  for (int e = 0; e < kEpochs; ++e) {
    for (const auto& q : world.queries) {
      while (!scrubber.offer(q)) {
        std::this_thread::yield();  // retry: equivalence needs every query
      }
    }
  }
  scrubber.drain();
  scrubber.stop();

  // The background path is the offline engine, verbatim.
  EXPECT_EQ(scrubber.engine().total_updates(), offline.total_updates());
  EXPECT_EQ(scrubber.engine().total_substituted_bits(),
            offline.total_substituted_bits());
  for (std::size_t c = 0; c < kClasses; ++c) {
    EXPECT_EQ(scrubber.working_model().class_vector(c).planes[0].to_binvec(),
              offline_model.class_vector(c).planes[0].to_binvec())
        << "class " << c;
  }
  EXPECT_GT(metrics.snapshot().counter("scrub.processed"), 0u);

  // And the published snapshot is the repaired model.
  ASSERT_GT(snapshot.version(), 0u);
  const auto published = snapshot.acquire();
  for (std::size_t c = 0; c < kClasses; ++c) {
    EXPECT_EQ(published->class_vector(c).planes[0].to_binvec(),
              offline_model.class_vector(c).planes[0].to_binvec());
  }
}

TEST(Server, RepairsInjectedFaultsWhileServing) {
  auto world = make_world(27);
  const auto clean = world.model;

  ServerConfig config;
  config.worker_threads = 2;
  config.max_batch = 8;
  config.enable_recovery = true;
  config.scrubber.recovery = generous_recovery();
  Server server(world.model, config);

  // Damage the live model mid-service, then keep serving traffic so the
  // scrubber has trusted queries to heal from.
  server.inject_faults(0.15, fault::AttackMode::kClustered, 28);
  server.drain();
  const auto damaged = *server.current_model();

  for (int epoch = 0; epoch < 10; ++epoch) {
    (void)server.predict_all(world.queries);
  }
  server.drain();
  server.shutdown();

  const auto stats = server.stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.trusted, 0u);
  EXPECT_GT(stats.scrub_processed, 0u);
  EXPECT_GT(stats.scrub_substituted_bits, 0u);
  EXPECT_GT(stats.snapshots_published, 1u);  // damage + at least one repair

  // Bit-level agreement with the clean trained planes improved.
  const auto healed = *server.current_model();
  double before = 0.0, after = 0.0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto clean_plane = clean.class_vector(c).planes[0].to_binvec();
    before += hv::similarity(damaged.class_vector(c).planes[0].to_binvec(),
                             clean_plane);
    after += hv::similarity(healed.class_vector(c).planes[0].to_binvec(),
                            clean_plane);
  }
  EXPECT_GT(after, before);
}

// ------------------------------------------------- damaged snapshots --
//
// Models whose planes were written after they were built — by
// Server::inject_faults, or through memory_regions() before serving — must
// score their own bits: the batch path, the per-query path and a model
// freshly built from copies of those bits all agree. D is a multiple of
// 64 so a campaign cannot set bits past D, which only the batch path
// would read.

constexpr std::size_t kWordDim = 4096;

model::HdcModel random_word_model(util::Xoshiro256& rng) {
  std::vector<model::ClassVector> classes(kClasses);
  for (auto& cv : classes) {
    cv.planes.push_back(hv::BinVec::random(kWordDim, rng));
  }
  return model::HdcModel::from_planes(classes, 1);
}

void expect_scores_own_bits(const model::HdcModel& m,
                            std::span<const hv::BinVec> queries) {
  std::vector<const hv::BinVec*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);
  model::ScoreWorkspace ws;
  m.scores_batch(ptrs, ws);
  std::vector<model::ClassVector> copies(m.num_classes());
  for (std::size_t c = 0; c < m.num_classes(); ++c) {
    copies[c].planes.push_back(m.class_vector(c).planes[0].to_binvec());
  }
  model::ScoreWorkspace rebuilt;
  model::HdcModel::from_planes(copies, 1).scores_batch(ptrs, rebuilt);
  EXPECT_EQ(ws.scores, rebuilt.scores);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = m.scores(queries[i]);
    for (std::size_t c = 0; c < m.num_classes(); ++c) {
      ASSERT_EQ(ws.scores[i * m.num_classes() + c], expected[c])
          << "q=" << i << " c=" << c;
    }
  }
}

std::vector<hv::BinVec> random_queries(std::size_t n, util::Xoshiro256& rng) {
  std::vector<hv::BinVec> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(hv::BinVec::random(kWordDim, rng));
  }
  return out;
}

TEST(Server, InjectedFaultsWithoutRecoveryScoreTheirOwnBits) {
  util::Xoshiro256 rng(0x57a1e);
  const auto clean = random_word_model(rng);
  const auto queries = random_queries(40, rng);
  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  Server server(clean, config);
  server.inject_faults(0.1, fault::AttackMode::kClustered, 7);
  const auto damaged = server.current_model();
  std::size_t changed = 0;
  for (std::size_t c = 0; c < kClasses; ++c) {
    changed += util::hamming(clean.plane_words(c, 0),
                             damaged->plane_words(c, 0));
  }
  EXPECT_GT(changed, 0u);
  expect_scores_own_bits(*damaged, queries);
  const auto answers = server.predict_all(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i].predicted, damaged->predict(queries[i])) << i;
  }
  server.shutdown();
}

TEST(Server, ModelDamagedThroughRegionsScoresItsOwnBits) {
  util::Xoshiro256 rng(0x57a1f);
  auto model = random_word_model(rng);
  const auto queries = random_queries(40, rng);
  auto regions = model.memory_regions();
  util::Xoshiro256 attack(8);
  fault::BitFlipInjector::inject(regions, 0.1, fault::AttackMode::kRandom,
                                 attack);
  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  Server server(model, config);
  expect_scores_own_bits(*server.current_model(), queries);
  const auto answers = server.predict_all(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i].predicted, model.predict(queries[i])) << i;
  }
  server.shutdown();
}

// --------------------------------------------------------------- reload --

/// Two-class model whose prediction identifies the plane contents: the
/// all-zero probe query scores 1.0 against the all-zero class vector and
/// 0.0 against the all-one one, so `predicted` tells us *exactly* which
/// model a response was scored on.
model::HdcModel two_plane_model(bool swapped) {
  hv::BinVec zeros(kDim);
  hv::BinVec ones(kDim);
  for (std::size_t i = 0; i < kDim; ++i) ones.set(i, true);
  std::vector<model::ClassVector> classes(2);
  classes[0].planes.push_back(swapped ? ones : zeros);
  classes[1].planes.push_back(swapped ? zeros : ones);
  return model::HdcModel::from_planes(std::move(classes), 1);
}

TEST(ModelSnapshot, TryPublishIsVersionConditional) {
  auto world = make_world(34);
  ModelSnapshot snapshot(world.model);
  const auto [initial, v0] = snapshot.acquire_versioned();
  EXPECT_EQ(v0, 0u);

  // A writer holding the current version may publish...
  EXPECT_TRUE(snapshot.try_publish(*initial, v0));
  EXPECT_EQ(snapshot.version(), 1u);
  // ...but a writer whose copy predates someone else's publish may not.
  EXPECT_FALSE(snapshot.try_publish(*initial, v0));
  EXPECT_EQ(snapshot.version(), 1u);
}

TEST(Server, ReloadNeverMixesModelsMidTraffic) {
  // The acceptance-criteria test: hot-swap the model while concurrent
  // producers hammer the server, and check from the responses alone that
  // every query was scored on exactly one of the two models — the one its
  // reported model_version names. A worker that mixed planes across the
  // swap would emit a (version, prediction) pair that contradicts this.
  ServerConfig config;
  config.worker_threads = 3;
  config.max_batch = 4;
  config.enable_recovery = false;
  Server server(two_plane_model(false), config);

  const hv::BinVec probe(kDim);  // all zeros

  // Phase 1: the old model answers 0.
  for (int i = 0; i < 20; ++i) {
    const auto r = server.submit(probe).get();
    EXPECT_EQ(r.predicted, 0);
    EXPECT_EQ(r.model_version, 0u);
  }

  // Phase 2: reload concurrently with live traffic.
  std::mutex mu;
  std::vector<Response> responses;
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 800; ++i) {
        auto r = server.submit(probe).get();
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(r);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto reload_version = server.reload(two_plane_model(true));
  EXPECT_GE(reload_version, 1u);
  for (auto& t : producers) t.join();

  // Phase 3: the new model answers 1.
  for (int i = 0; i < 20; ++i) {
    const auto r = server.submit(probe).get();
    EXPECT_EQ(r.predicted, 1);
    EXPECT_GE(r.model_version, reload_version);
  }
  server.shutdown();

  std::size_t old_plane = 0, new_plane = 0;
  for (const auto& r : responses) {
    if (r.model_version < reload_version) {
      ASSERT_EQ(r.predicted, 0) << "pre-reload version scored on new model";
      ++old_plane;
    } else {
      ASSERT_EQ(r.predicted, 1) << "post-reload version scored on old model";
      ++new_plane;
    }
  }
  EXPECT_EQ(old_plane + new_plane, responses.size());
  EXPECT_GT(new_plane, 0u);  // the swap landed while traffic was live
  EXPECT_EQ(server.stats().reloads, 1u);
}

TEST(Server, ReloadValidatesShape) {
  auto world = make_world(35);
  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = true;
  config.scrubber.recovery = generous_recovery();
  Server server(world.model, config);

  // Wrong dimension: in-flight scoring workspaces and the scrubber's
  // working copy are sized for kDim.
  util::Xoshiro256 rng(36);
  std::vector<hv::BinVec> train{hv::BinVec::random(512, rng),
                                hv::BinVec::random(512, rng)};
  std::vector<int> labels{0, 1};
  auto wrong_dim = model::HdcModel::train(train, labels, 2, {});
  EXPECT_THROW((void)server.reload(std::move(wrong_dim)),
               std::invalid_argument);

  // Multi-bit model while the recovery scrubber is live: substitution is
  // binary-only, so the reload must be refused up front.
  std::vector<hv::BinVec> train2{hv::BinVec::random(kDim, rng),
                                 hv::BinVec::random(kDim, rng)};
  model::HdcConfig multibit;
  multibit.precision_bits = 2;
  auto wrong_bits = model::HdcModel::train(train2, labels, 2, multibit);
  EXPECT_THROW((void)server.reload(std::move(wrong_bits)),
               std::invalid_argument);

  EXPECT_EQ(server.stats().reloads, 0u);  // neither attempt published
  server.shutdown();
}

TEST(Server, LoadModelChecksIntegrityAndCountsFailures) {
  const auto spec = data::scaled(data::dataset_by_name("PAMAP"), 200, 50);
  const auto split = data::make_synthetic(spec);
  core::HdcClassifierConfig train_config;
  train_config.encoder.dimension = 1500;
  auto clf = core::HdcClassifier::train(split.train, train_config);

  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  Server server(model::HdcModel(clf.model()), config);

  const std::string good_path = "/tmp/robusthd_reload_good.rhd";
  const std::string bad_path = "/tmp/robusthd_reload_bad.rhd";
  core::save_model(clf, good_path);

  auto corrupted = core::serialize(clf);
  corrupted[corrupted.size() - 1] ^= std::byte{0x01};  // one payload bit
  {
    std::ofstream out(bad_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(corrupted.data()),
              static_cast<std::streamsize>(corrupted.size()));
  }

  EXPECT_GE(server.load_model(good_path), 1u);
  EXPECT_THROW((void)server.load_model(bad_path), std::runtime_error);
  EXPECT_THROW((void)server.load_model("/nonexistent/model.rhd"),
               std::runtime_error);

  const auto stats = server.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.integrity_failures, 2u);
  server.shutdown();
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(Server, ScrubberResyncsAfterReload) {
  auto world = make_world(37);
  ServerConfig config;
  config.worker_threads = 2;
  config.enable_recovery = true;
  config.scrubber.recovery = generous_recovery();
  Server server(world.model, config);

  (void)server.predict_all(world.queries);
  server.drain();

  auto replacement = make_world(38);  // fresh same-shape model
  EXPECT_GE(server.reload(std::move(replacement.model)), 1u);

  // Traffic on the new model: the scrubber must notice the foreign
  // snapshot version and resynchronise its private working copy before
  // observing anything else.
  for (int epoch = 0; epoch < 3; ++epoch) {
    (void)server.predict_all(replacement.queries);
  }
  server.drain();
  server.shutdown();

  const auto stats = server.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_GE(stats.scrub_resyncs, 1u);
}

TEST(Scrubber, CountsTrustDropsWhenRingFull) {
  auto world = make_world(39);
  ModelSnapshot snapshot(world.model);
  ScrubberConfig config;
  config.ring_capacity = 8;
  util::MetricsRegistry metrics;
  Scrubber scrubber(snapshot, config, metrics);  // never started: ring fills
  std::size_t accepted = 0, dropped = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (scrubber.offer(world.queries[i])) {
      ++accepted;
    } else {
      ++dropped;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(dropped, 12u);
  EXPECT_EQ(metrics.snapshot().counter("scrub.trust_drops"), dropped);
}

TEST(Batcher, FlushesPartialBatchWhenQueueClosesMidLinger) {
  RequestQueue<int> queue(16);
  // max_batch far above what we enqueue, with a linger long enough that a
  // dropped partial batch would show up as either lost items or a full
  // linger-length stall.
  Batcher<int> batcher(queue, 8, std::chrono::milliseconds(500));
  for (int v : {41, 42}) {
    int item = v;
    ASSERT_TRUE(queue.try_push(item));
  }
  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  std::vector<int> batch;
  const auto start = std::chrono::steady_clock::now();
  // The batch is underfull when close() lands mid-linger: next_batch must
  // return the partial batch immediately (flush, not drop).
  ASSERT_TRUE(batcher.next_batch(batch));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch, (std::vector<int>{41, 42}));
  EXPECT_LT(waited, std::chrono::milliseconds(400));
  closer.join();
  // Closed and drained: the worker exit signal.
  EXPECT_FALSE(batcher.next_batch(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(Batcher, ShedRequestsNeverTakeABatchSlot) {
  // Expired requests interleaved between live ones, as the worker's
  // deadline predicate sees them: each is completed kExpired exactly once
  // and the batch still fills to max_batch live requests, in FIFO order.
  struct Item {
    int id = 0;  ///< live ids count up from 0; expired ids from 100
    CompletionTarget done;
  };
  auto completions = std::make_shared<CompletionQueue>();
  RequestQueue<Item> queue(64);
  Batcher<Item> batcher(queue, 4, std::chrono::nanoseconds::zero(),
                        [](Item& item) {
                          if (item.id < 100) return false;
                          Response response;
                          response.expired = true;
                          item.done.complete(CompletionStatus::kExpired,
                                             response);
                          return true;
                        });
  const char* pattern = "EELELLEEELLELEELLLELEE";  // E expired, L live
  int live = 0, expired = 100;
  for (const char* c = pattern; *c != '\0'; ++c) {
    const int id = *c == 'L' ? live++ : expired++;
    Item item{id, CompletionTarget(completions,
                                   static_cast<std::uint64_t>(id))};
    ASSERT_TRUE(queue.try_push(item));
  }
  queue.close();

  std::vector<std::vector<int>> batches;
  std::vector<Item> batch;
  while (batcher.next_batch(batch)) {
    batches.emplace_back();
    for (auto& item : batch) {
      batches.back().push_back(item.id);
      item.done.complete(CompletionStatus::kAnswered, Response{});
    }
  }
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batches, (std::vector<std::vector<int>>{
                         {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}));

  std::vector<Completion> out;
  completions->drain(out);
  std::vector<int> times(static_cast<std::size_t>(expired), 0);
  for (const auto& c : out) {
    ++times[c.tag];
    const bool is_expired = c.tag >= 100;
    EXPECT_EQ(c.status, is_expired ? CompletionStatus::kExpired
                                   : CompletionStatus::kAnswered)
        << c.tag;
  }
  ASSERT_EQ(out.size(), static_cast<std::size_t>(live + expired - 100));
  for (int id = 0; id < live; ++id) EXPECT_EQ(times[id], 1) << id;
  for (int id = 100; id < expired; ++id) EXPECT_EQ(times[id], 1) << id;
}

TEST(Server, ShutdownMidLingerAnswersEveryAcceptedRequest) {
  const auto world = make_world(0x11f1);
  ServerConfig config;
  config.worker_threads = 2;
  config.max_batch = 64;                             // never fills
  config.batch_linger = std::chrono::milliseconds(250);  // workers linger
  config.enable_recovery = false;
  Server server(world.model, config);
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(server.submit(world.queries[i]));
  }
  // A lingering server asked its workers to hold batches open: answering
  // on arrival would defeat that, so answer_now refuses and counts nothing.
  Server::Lane lane;
  EXPECT_FALSE(answer_copies(server, lane, std::span(world.queries).first(1)));
  EXPECT_EQ(server.stats().submitted, futures.size());
  // Shut down while the partial batch is (at most) mid-linger: every
  // accepted request must still get a real answer.
  server.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto response = futures[i].get();
    EXPECT_EQ(response.predicted, world.labels[i]);
  }
}

/// Encodes every feature vector to one fixed query, after waiting for
/// release(): holds a worker inside its batch for as long as a test needs.
class HeldEncoder final : public hv::Encoder {
 public:
  explicit HeldEncoder(hv::BinVec query) : query_(std::move(query)) {}
  std::size_t dimension() const noexcept override {
    return query_.dimension();
  }
  std::size_t feature_count() const noexcept override { return 1; }
  hv::BinVec encode(std::span<const float>) const override {
    entered_.store(true, std::memory_order_release);
    while (!released_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return query_;
  }
  bool entered() const { return entered_.load(std::memory_order_acquire); }
  void release() const { released_.store(true, std::memory_order_release); }

 private:
  hv::BinVec query_;
  mutable std::atomic<bool> entered_{false};
  mutable std::atomic<bool> released_{false};
};

TEST(Server, AnswerNowRefusesWhileRequestsAreQueued) {
  const auto world = make_world(0x11f2);
  auto encoder = std::make_shared<HeldEncoder>(world.queries[0]);
  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  config.encoder = encoder;
  Server server(world.model, config);

  // The only worker is held inside a batch, so the next request waits in
  // the queue: answering a later one first would overtake it.
  auto held = server.submit_features({0.5f});
  while (!encoder->entered()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto queued = server.submit(world.queries[1]);
  ASSERT_EQ(server.stats().queue_depth, 1u);
  Server::Lane lane;
  EXPECT_FALSE(answer_copies(server, lane, std::span(world.queries).first(2)));
  const auto refused = server.stats();
  EXPECT_EQ(refused.submitted, 2u);
  EXPECT_EQ(refused.batches, 1u);

  encoder->release();
  EXPECT_EQ(held.get().predicted, world.labels[0]);
  EXPECT_EQ(queued.get().predicted, world.labels[1]);
  server.drain();
  // An empty queue again: the same call now answers.
  EXPECT_TRUE(answer_copies(server, lane, std::span(world.queries).first(2)));
  EXPECT_EQ(server.stats().submitted, 4u);
}

TEST(Server, AnswerNowQuarantinesAndAbstainsLikeTheWorkers) {
  const auto world = make_world(0x11f3);
  const auto queries = std::span(world.queries).first(8);

  // Rung (b): light random damage drifts every chunk past the threshold
  // and the sentinel quarantines the worst half.
  ServerConfig degraded_config;
  degraded_config.worker_threads = 1;
  degraded_config.enable_recovery = false;
  degraded_config.sentinel.enabled = true;
  degraded_config.sentinel.period = std::chrono::milliseconds(0);
  degraded_config.sentinel.chunk_drift_threshold = 0.01;
  degraded_config.sentinel.bad_streak = 1;
  degraded_config.sentinel.good_streak = 1000;
  degraded_config.sentinel.breaker_floor = 0.0;
  degraded_config.canaries.assign(world.queries.begin(),
                                  world.queries.begin() + 20);
  degraded_config.canary_labels.assign(world.labels.begin(),
                                       world.labels.begin() + 20);
  Server degraded(world.model, degraded_config);
  degraded.inject_faults(0.05, fault::AttackMode::kRandom, 7);
  degraded.sentinel()->run_round();
  ASSERT_GT(degraded.stats().quarantined_chunks, 0u);
  const auto masked = degraded.predict_all(queries);
  Server::Lane lane;
  ASSERT_TRUE(answer_copies(degraded, lane, queries));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(lane.responses()[i].degraded) << i;
    expect_same_answer(lane.responses()[i], masked[i], i);
  }
  EXPECT_EQ(degraded.stats().degraded_responses, 2 * queries.size());

  // Rung (c): canaries that are never right trip the breaker and keep it
  // open; the whole batch abstains, unscored.
  ServerConfig breaker_config;
  breaker_config.worker_threads = 1;
  breaker_config.enable_recovery = false;
  breaker_config.sentinel.enabled = true;
  breaker_config.sentinel.period = std::chrono::milliseconds(0);
  breaker_config.sentinel.breaker_floor = 0.9;
  breaker_config.sentinel.breaker_window = 1;
  breaker_config.sentinel.breaker_reload_retries = 1;
  breaker_config.sentinel.breaker_backoff = std::chrono::milliseconds(1);
  breaker_config.canaries.assign(world.queries.begin(),
                                 world.queries.begin() + 20);
  breaker_config.canary_labels.assign(20, -7);
  Server tripped(world.model, breaker_config);
  tripped.sentinel()->run_round();
  ASSERT_TRUE(tripped.breaker_open());
  const auto shed = tripped.predict_all(queries);
  Server::Lane tripped_lane;
  ASSERT_TRUE(answer_copies(tripped, tripped_lane, queries));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(tripped_lane.responses()[i].abstained) << i;
    EXPECT_EQ(tripped_lane.responses()[i].predicted, -1) << i;
    expect_same_answer(tripped_lane.responses()[i], shed[i], i);
  }
  EXPECT_EQ(tripped.stats().abstained_responses, 2 * queries.size());
}

/// A thousand classes at D = 16,384: scoring a query takes far longer
/// than handing it to a worker. One query in four is a clean prototype,
/// answered with trust and offered to the scrubber; the rest are random.
struct WideWorld {
  model::HdcModel model;
  std::vector<hv::BinVec> queries;
};

WideWorld make_wide_world(std::size_t queries) {
  constexpr std::size_t kWideDim = 16384;
  constexpr std::size_t kManyClasses = 1024;
  util::Xoshiro256 rng(0xd5);
  std::vector<hv::BinVec> prototypes;
  std::vector<int> labels;
  for (std::size_t c = 0; c < kManyClasses; ++c) {
    prototypes.push_back(hv::BinVec::random(kWideDim, rng));
    labels.push_back(static_cast<int>(c));
  }
  model::HdcConfig model_config;
  model_config.retrain_epochs = 0;
  WideWorld w{model::HdcModel::train(prototypes, labels, kManyClasses,
                                     model_config),
              {}};
  for (std::size_t i = 0; i < queries; ++i) {
    w.queries.push_back(i % 4 == 0 ? prototypes[i]
                                   : hv::BinVec::random(kWideDim, rng));
  }
  return w;
}

TEST(Server, InlinePaysOnlyWhenScoringBeatsTheMeasuredHandOff) {
  const auto world = make_world(0x11f4);
  ServerConfig config;
  config.worker_threads = 1;
  config.enable_recovery = false;
  Server fresh(world.model, config);
  // Nothing measured: a fresh server's first batch goes to a worker.
  EXPECT_FALSE(fresh.inline_pays(1));
  Server::Lane lane;
  ASSERT_TRUE(answer_copies(fresh, lane, std::span(world.queries).first(1)));
  EXPECT_FALSE(fresh.inline_pays(1)) << "service measured, hand-off not yet";

  // A worker that lingers holds every request it wakes for at least the
  // linger before scoring it, so this server's hand-off costs 20 ms and
  // a small batch of a five-class model is far cheaper.
  config.batch_linger = std::chrono::milliseconds(20);
  Server lingering(world.model, config);
  // Only a request that arrives while the worker waits is a sample, so
  // give the worker a moment to get there. The rule wants eight samples.
  for (int i = 0; i < 20 && !lingering.inline_pays(1); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(lingering.submit(world.queries[0]).get().predicted,
              world.labels[0]);
  }
  EXPECT_TRUE(lingering.inline_pays(1));
  EXPECT_FALSE(lingering.inline_pays(1'000'000))
      << "a million queries take longer than one hand-off";

  // A heavy model: scoring a batch costs far more than a wake-up, so its
  // batches stay with the workers. Only a request that finds the worker
  // idle is a hand-off sample (the first may not: the worker may not have
  // reached its loop yet), so submit until the rule has its samples and
  // the check below weighs costs rather than counting samples.
  const auto wide = make_wide_world(8);
  config.batch_linger = {};
  Server heavy(wide.model, config);
  for (std::size_t i = 0;
       i < 64 && heavy.stats().handoff.count < Server::kMinHandoffs; ++i) {
    heavy.submit(wide.queries[i % wide.queries.size()]).get();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_GE(heavy.stats().handoff.count, Server::kMinHandoffs);
  EXPECT_FALSE(heavy.inline_pays(config.max_batch));
}

TEST(Server, ShutdownWaitsOutAnInlineBatchBeforeStoppingTheScrubber) {
  // Inline batches slow enough to straddle a shutdown, each with trusted
  // answers to offer the scrubber. shutdown() must not stop the scrubber
  // under a running batch: its offers would land in a stopped ring, and
  // drain() would wait for them forever.
  const auto wide = make_wide_world(8);
  ServerConfig config;
  config.worker_threads = 1;
  config.max_batch = wide.queries.size();
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Server server(wide.model, config);
    std::atomic<bool> stop{false};
    std::atomic<int> batches{0};
    std::thread loop([&] {
      Server::Lane lane;
      while (!stop.load()) {
        if (answer_copies(server, lane, wide.queries)) batches.fetch_add(1);
      }
    });
    while (batches.load() < 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    server.shutdown();
    const auto at_shutdown = server.stats().submitted;
    stop.store(true);
    loop.join();

    const auto s = server.stats();
    EXPECT_EQ(s.submitted, at_shutdown)
        << "nothing may be answered after shutdown()";
    EXPECT_EQ(s.completed, s.submitted);
    EXPECT_GT(s.scrub_offered, 0u);
    EXPECT_EQ(s.scrub_processed, s.scrub_offered)
        << "an offer landed in the stopped scrubber's ring";
    if (s.scrub_processed == s.scrub_offered) server.drain();
  }
}

TEST(Server, RecoveryRejectsMultibitModels) {
  util::Xoshiro256 rng(29);
  std::vector<hv::BinVec> train{hv::BinVec::random(256, rng),
                                hv::BinVec::random(256, rng)};
  std::vector<int> labels{0, 1};
  model::HdcConfig model_config;
  model_config.precision_bits = 2;
  auto model = model::HdcModel::train(train, labels, 2, model_config);
  ServerConfig config;
  config.enable_recovery = true;
  EXPECT_THROW(Server(std::move(model), config), std::invalid_argument);
}

// ---------------------------------------------------- completion queue --

bool doorbell_rung(const CompletionQueue& queue) {
  pollfd pfd{queue.fd(), POLLIN, 0};
  return ::poll(&pfd, 1, 0) == 1;
}

TEST(CompletionQueue, EveryTargetDeliversExactlyOnce) {
  auto queue = std::make_shared<CompletionQueue>();
  EXPECT_FALSE(doorbell_rung(*queue));
  Response answer;
  answer.predicted = 3;
  {
    CompletionTarget answered(queue, 1);
    answered.complete(CompletionStatus::kAnswered, answer);
    answered.complete(CompletionStatus::kExpired, answer);  // disarmed
    CompletionTarget dropped(queue, 2);  // destroyed armed
    CompletionTarget refused(queue, 3);
    refused.disarm();
    CompletionTarget moved_from(queue, 4);
    CompletionTarget moved_to(std::move(moved_from));
    moved_to.complete(CompletionStatus::kExpired, Response{});
  }
  EXPECT_TRUE(doorbell_rung(*queue));
  std::vector<Completion> out;
  queue->drain(out);
  EXPECT_FALSE(doorbell_rung(*queue));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tag, 1u);
  EXPECT_EQ(out[0].status, CompletionStatus::kAnswered);
  EXPECT_EQ(out[0].response.predicted, 3);
  EXPECT_EQ(out[1].tag, 4u);
  EXPECT_EQ(out[1].status, CompletionStatus::kExpired);
  EXPECT_EQ(out[2].tag, 2u);
  EXPECT_EQ(out[2].status, CompletionStatus::kDropped);
}

TEST(CompletionQueue, DroppedFutureTargetThrows) {
  std::promise<Response> promise;
  auto future = promise.get_future();
  { CompletionTarget target(std::move(promise)); }
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(CompletionQueue, ConcurrentProducersLoseNothingAndRingTheDoorbell) {
  auto queue = std::make_shared<CompletionQueue>();
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kEach = 2000;
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kEach; ++i) {
        queue->push(p * kEach + i, CompletionStatus::kAnswered, Response{});
      }
    });
  }
  // The consumer waits on the doorbell only, as an event loop does: a
  // lost wake-up would leave it blocked with completions queued.
  std::vector<int> seen(kProducers * kEach, 0);
  std::vector<Completion> out;
  std::uint64_t received = 0;
  while (received < kProducers * kEach) {
    pollfd pfd{queue->fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "lost wake-up at " << received;
    queue->drain(out);
    for (const auto& c : out) ++seen[c.tag];
    received += out.size();
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int n) { return n == 1; }));
}

TEST(Server, TrySubmitToCompletesIntoTheQueue) {
  const auto w = make_world(0xc0);
  ServerConfig config;
  config.worker_threads = 2;
  config.enable_recovery = false;
  Server server(w.model, config);
  auto queue = std::make_shared<CompletionQueue>();
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ASSERT_TRUE(server.try_submit_to(w.queries[0], past, queue, 100));
  for (std::uint64_t i = 1; i < w.queries.size(); ++i) {
    ASSERT_TRUE(server.try_submit_to(
        w.queries[i], std::chrono::steady_clock::time_point::max(), queue,
        100 + i));
  }
  std::vector<Completion> all;
  std::vector<Completion> out;
  while (all.size() < w.queries.size()) {
    pollfd pfd{queue->fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    queue->drain(out);
    all.insert(all.end(), out.begin(), out.end());
  }
  for (const auto& c : all) {
    const std::size_t i = c.tag - 100;
    if (i == 0) {
      EXPECT_EQ(c.status, CompletionStatus::kExpired);
      EXPECT_TRUE(c.response.expired);
      continue;
    }
    EXPECT_EQ(c.status, CompletionStatus::kAnswered);
    EXPECT_EQ(c.response.predicted, w.model.predict(w.queries[i])) << i;
  }
  server.shutdown();
  EXPECT_FALSE(server.try_submit_to(
      w.queries[0], std::chrono::steady_clock::time_point::max(), queue, 1));
  queue->drain(out);
  EXPECT_TRUE(out.empty()) << "a refused submission completes nothing";
  // Nor does anything start on the caller's thread after shutdown.
  const auto submitted = server.stats().submitted;
  Server::Lane lane;
  EXPECT_FALSE(answer_copies(server, lane, std::span(w.queries).first(1)));
  EXPECT_EQ(server.stats().submitted, submitted);
}

}  // namespace
}  // namespace robusthd::serve
