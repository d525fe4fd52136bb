// NetChaos proxy tests: a clean proxy is transparent (predictions
// bit-identical through it), each fault knob produces its advertised
// failure mode, and — the property the whole wire layer exists for —
// no injected corruption ever surfaces as data: a flipped bit is
// always a detected protocol error, never a wrong answer. Runs under
// TSan in CI.
#include "robusthd/fleet/netchaos.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "robusthd/fleet/client.hpp"
#include "robusthd/fleet/fleet.hpp"
#include "robusthd/fleet/frontend.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::fleet {
namespace {

constexpr std::size_t kDim = 1500;
constexpr std::size_t kClasses = 4;

struct World {
  std::vector<hv::BinVec> queries;
  std::vector<int> labels;
  model::HdcModel model;
};

World make_world(std::uint64_t seed) {
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
    for (int i = 0; i < 15; ++i) {
      train.push_back(noisy(c));
      train_labels.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 4; ++i) {
      w.queries.push_back(noisy(c));
      w.labels.push_back(static_cast<int>(c));
    }
  }
  w.model = model::HdcModel::train(train, train_labels, kClasses, {});
  return w;
}

Fleet make_fleet(const World& w, std::size_t shards) {
  std::vector<model::HdcModel> models;
  FleetConfig config;
  for (std::size_t i = 0; i < shards; ++i) {
    models.push_back(w.model);
    ShardConfig shard;
    shard.server.worker_threads = 2;
    shard.server.enable_recovery = false;
    config.shards.push_back(std::move(shard));
  }
  return Fleet(std::move(models), std::move(config));
}

std::vector<Endpoint> frontend_endpoints(const Frontend& frontend) {
  std::vector<Endpoint> out;
  for (const auto port : frontend.ports()) out.push_back({"127.0.0.1", port});
  return out;
}

TEST(NetChaos, CleanProxyIsTransparent) {
  const auto w = make_world(0x1001);
  auto fleet = make_fleet(w, 2);
  Frontend frontend(fleet);
  frontend.start();
  NetChaos chaos(frontend_endpoints(frontend));
  chaos.start();

  Client through({chaos.endpoints()}, {"default", "default"});
  Client direct(frontend_endpoints(frontend), {"default", "default"});
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const auto a = through.predict(i, w.queries[i]);
    const auto b = direct.predict(i, w.queries[i]);
    ASSERT_TRUE(a.ok) << a.error_message;
    ASSERT_TRUE(b.ok) << b.error_message;
    EXPECT_EQ(a.predicted, b.predicted) << "query " << i;
    EXPECT_EQ(a.confidence, b.confidence) << "query " << i;
    EXPECT_EQ(a.shard, b.shard) << "query " << i;
  }
  const auto counters = chaos.metrics();
  EXPECT_GE(counters.counter("netchaos.connections"), 1u);
  EXPECT_GT(counters.counter("netchaos.bytes_in"), 0u);
  EXPECT_GT(counters.counter("netchaos.bytes_out"), 0u);
  EXPECT_EQ(counters.counter("netchaos.bits_flipped"), 0u);
  EXPECT_EQ(counters.counter("netchaos.resets_injected"), 0u);

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

TEST(NetChaos, InjectedDelayShowsUpInLatency) {
  const auto w = make_world(0x1002);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  NetChaosConfig config;
  config.delay = std::chrono::milliseconds(30);
  NetChaos chaos(frontend_endpoints(frontend), std::move(config));
  chaos.start();

  Client client(chaos.endpoints(), {"default"});
  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.predict(0, w.queries[0]);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(response.ok) << response.error_message;
  // Request and response chunks are each held 30ms.
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
  EXPECT_GE(chaos.metrics().counter("netchaos.chunks_delayed"), 2u);

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

TEST(NetChaos, EveryFlippedBitIsDetectedNeverServed) {
  const auto w = make_world(0x1003);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  NetChaosConfig config;
  config.flip_rate = 1.0;  // one random bit flipped in every chunk
  NetChaos chaos(frontend_endpoints(frontend), std::move(config));
  chaos.start();

  ClientConfig client_config;
  client_config.retry.max_attempts = 1;
  client_config.retry.attempt_timeout = std::chrono::milliseconds(200);
  client_config.response_timeout = std::chrono::milliseconds(500);
  Client client(chaos.endpoints(), {"default"}, std::move(client_config));
  std::size_t ok = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (client.predict(i, w.queries[i % w.queries.size()]).ok) ++ok;
  }
  // A CRC32C catches every single-bit flip: zero corrupted frames may
  // parse, so zero answers of any kind come back.
  EXPECT_EQ(ok, 0u);
  EXPECT_GE(chaos.metrics().counter("netchaos.bits_flipped"), 8u);
  // The frontend saw the corruption as protocol errors (poisoned
  // connections), not as requests.
  EXPECT_GE(frontend.counters().protocol_errors, 1u);
  EXPECT_GE(client.counters().transport_errors, 1u);

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

TEST(NetChaos, InjectedResetSurfacesAsTransportError) {
  const auto w = make_world(0x1004);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  NetChaosConfig config;
  config.reset_rate = 1.0;
  NetChaos chaos(frontend_endpoints(frontend), std::move(config));
  chaos.start();

  ClientConfig client_config;
  client_config.retry.max_attempts = 2;
  client_config.retry.initial_backoff = std::chrono::milliseconds(1);
  client_config.retry.attempt_timeout = std::chrono::milliseconds(200);
  Client client(chaos.endpoints(), {"default"}, std::move(client_config));
  const auto response = client.predict(0, w.queries[0]);
  EXPECT_FALSE(response.ok);
  EXPECT_GE(chaos.metrics().counter("netchaos.resets_injected"), 1u);
  EXPECT_GE(client.counters().transport_errors, 1u);

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

TEST(NetChaos, DroppedChunksTimeOutInsteadOfHanging) {
  const auto w = make_world(0x1005);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  NetChaosConfig config;
  config.drop_rate = 1.0;  // the connection goes silently deaf
  NetChaos chaos(frontend_endpoints(frontend), std::move(config));
  chaos.start();

  ClientConfig client_config;
  client_config.retry.max_attempts = 1;
  client_config.retry.attempt_timeout = std::chrono::milliseconds(100);
  client_config.response_timeout = std::chrono::milliseconds(400);
  Client client(chaos.endpoints(), {"default"}, std::move(client_config));
  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.predict(0, w.queries[0]);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(response.ok);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  EXPECT_GE(chaos.metrics().counter("netchaos.chunks_dropped"), 1u);

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

TEST(NetChaos, BlackholedShardFailsOverToItsTwin) {
  const auto w = make_world(0x1006);
  auto fleet = make_fleet(w, 2);
  Frontend frontend(fleet);
  frontend.start();
  NetChaos chaos(frontend_endpoints(frontend));
  chaos.start();

  ClientConfig client_config;
  client_config.retry.attempt_timeout = std::chrono::milliseconds(100);
  client_config.retry.initial_backoff = std::chrono::milliseconds(1);
  client_config.response_timeout = std::chrono::milliseconds(2000);
  Client client(chaos.endpoints(), {"default", "default"},
                std::move(client_config));

  // Find a tenant whose primary is shard 0, then partition shard 0.
  Router reference({"default", "default"}, RouterConfig{});
  std::uint64_t victim = 0;
  while (reference.route(victim) != 0) ++victim;
  chaos.set_blackholed(0, true);

  const auto response = client.predict(victim, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.shard, 1u);
  EXPECT_TRUE(response.failover);
  EXPECT_GE(response.attempts, 2u);
  EXPECT_GE(chaos.metrics().counter("netchaos.blackholed_chunks"), 1u);
  EXPECT_TRUE(chaos.blackholed(0));

  // Heal the partition: after the cooldown the primary serves again.
  chaos.set_blackholed(0, false);
  EXPECT_FALSE(chaos.blackholed(0));

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

TEST(NetChaos, ThrottledByteTrickleStillReassembles) {
  const auto w = make_world(0x1007);
  auto fleet = make_fleet(w, 1);
  FrontendConfig fc;
  fc.read_deadline = std::chrono::milliseconds(5000);  // trickle is slow
  Frontend frontend(fleet, fc);
  frontend.start();
  NetChaosConfig config;
  config.throttle_bytes = 16;  // frames split at arbitrary boundaries
  NetChaos chaos(frontend_endpoints(frontend), std::move(config));
  chaos.start();

  ClientConfig client_config;
  client_config.response_timeout = std::chrono::milliseconds(10000);
  Client client(chaos.endpoints(), {"default"}, std::move(client_config));
  const auto response = client.predict(0, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_GE(response.predicted, 0);
  EXPECT_GT(chaos.metrics().counter("netchaos.throttled_writes"), 0u);

  chaos.stop();
  frontend.stop();
  fleet.shutdown();
}

}  // namespace
}  // namespace robusthd::fleet
