// End-to-end tests for the sharded fleet: in-process and over-TCP
// predictions must be bit-identical to a direct serve::Server on the
// same model (including the confidence double and the trusted /
// degraded / abstained flags), the degradation ladder must propagate
// over the wire, server-side failover must route around an open
// breaker, and a hostile connection must die without hurting its
// neighbours. Runs under TSan in CI.
#include "robusthd/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "robusthd/fleet/client.hpp"
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

World make_world(std::uint64_t seed, std::size_t queries_per_class = 20) {
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
    for (std::size_t i = 0; i < queries_per_class; ++i) {
      w.queries.push_back(noisy(c));
      w.labels.push_back(static_cast<int>(c));
    }
  }
  w.model = model::HdcModel::train(train, train_labels, kClasses, {});
  return w;
}

/// N same-model shards with deterministic scoring (no recovery).
Fleet make_fleet(const World& w, std::size_t shards,
                 std::size_t queue_capacity = 256,
                 std::chrono::microseconds batch_linger = {}) {
  std::vector<model::HdcModel> models;
  FleetConfig config;
  for (std::size_t i = 0; i < shards; ++i) {
    models.push_back(w.model);
    ShardConfig shard;
    shard.server.worker_threads = 2;
    shard.server.queue_capacity = queue_capacity;
    shard.server.batch_linger = batch_linger;
    shard.server.enable_recovery = false;
    config.shards.push_back(std::move(shard));
  }
  return Fleet(std::move(models), std::move(config));
}

void set_nonblocking_fd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void send_prefix(int fd, const std::vector<std::byte>& bytes,
                 std::size_t limit) {
  std::size_t off = 0;
  const std::size_t total = std::min(bytes.size(), limit);
  while (off < total) {
    const auto n =
        ::send(fd, bytes.data() + off, total - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;
  }
}

/// Minimal wire-speaking TCP server for client fault tests: parses
/// frames off every connection and hands them to the test's handler,
/// which sends whatever reply it wants. Handler returns false to close
/// the connection abortively (RST) right after its (possibly partial)
/// reply — the "server died mid-response" case.
class FakeWireServer {
 public:
  /// (connection fd, request frame, 1-based request ordinal across all
  /// connections) -> keep the connection open?
  using Handler = std::function<bool(int, const wire::Frame&, std::uint64_t)>;

  explicit FakeWireServer(Handler handler) : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    (void)::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    (void)::listen(listen_fd_, 16);
    socklen_t len = sizeof addr;
    (void)::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    set_nonblocking_fd(listen_fd_);
    thread_ = std::thread([this] { run(); });
  }

  ~FakeWireServer() {
    running_.store(false, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  struct Conn {
    int fd = -1;
    wire::FrameReader reader;
  };

  static void rst_close(int fd) {
    linger lin{};
    lin.l_onoff = 1;
    lin.l_linger = 0;
    (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof lin);
    ::close(fd);
  }

  void run() {
    std::vector<Conn> conns;
    std::byte buf[64 * 1024];
    while (running_.load(std::memory_order_acquire)) {
      std::vector<pollfd> pfds;
      pfds.push_back({listen_fd_, POLLIN, 0});
      for (const auto& conn : conns) pfds.push_back({conn.fd, POLLIN, 0});
      (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 10);
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking_fd(fd);
        conns.push_back({fd, wire::FrameReader()});
      }
      for (std::size_t i = 0; i < conns.size();) {
        auto& conn = conns[i];
        bool dead = false;
        for (;;) {
          const auto n = ::recv(conn.fd, buf, sizeof buf, 0);
          if (n > 0) {
            conn.reader.feed({buf, static_cast<std::size_t>(n)});
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          dead = true;  // peer closed or hard error
          break;
        }
        while (!dead) {
          const auto frame = conn.reader.next();
          if (!frame) break;
          const auto ordinal =
              count_.fetch_add(1, std::memory_order_relaxed) + 1;
          if (!handler_(conn.fd, *frame, ordinal)) {
            rst_close(conn.fd);
            conn.fd = -1;
            dead = true;
          }
        }
        if (dead || conn.reader.poisoned()) {
          if (conn.fd >= 0) ::close(conn.fd);
          conns[i] = std::move(conns.back());
          conns.pop_back();
          continue;
        }
        ++i;
      }
    }
    for (auto& conn : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> count_{0};
};

/// Canned healthy predict reply.
bool reply_predict(int fd, const wire::Frame& frame, std::int32_t predicted) {
  wire::PredictResult result;
  result.predicted = predicted;
  result.confidence = 0.75;
  result.trusted = true;
  result.model_version = 1;
  std::vector<std::byte> out;
  wire::append_predict_response(out, frame.tenant_id, frame.request_id,
                                result);
  send_prefix(fd, out, out.size());
  return true;
}

bool connect_to(int fd, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
}

/// Blocking loopback connection to `port`.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0 && !connect_to(fd, port)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  (void)::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ntohs(addr.sin_port);
}

/// The frontend runs in this process, so the fd it accepted for a
/// client socket can be found: the socket bound to the frontend's port
/// whose peer is the client's local port. -1 when there is none.
int accepted_fd_for(int client_fd, std::uint16_t frontend_port) {
  const std::uint16_t client_port = local_port(client_fd);
  for (int fd = 0; fd < 4096; ++fd) {
    sockaddr_in local{};
    socklen_t len = sizeof local;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET || ntohs(local.sin_port) != frontend_port) {
      continue;
    }
    sockaddr_in peer{};
    len = sizeof peer;
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
        ntohs(peer.sin_port) == client_port) {
      return fd;
    }
  }
  return -1;
}

/// Reads frames off a blocking socket until `count` have arrived or
/// `timeout` passes with nothing new; returns copies of what arrived.
struct OwnedFrame {
  wire::FrameType type{};
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::vector<std::byte> payload;

  wire::Frame view() const {
    wire::Frame frame;
    frame.type = type;
    frame.flags = flags;
    frame.request_id = request_id;
    frame.payload = payload;
    return frame;
  }
};

std::vector<OwnedFrame> read_frames(int fd, std::size_t count,
                                    std::chrono::milliseconds timeout) {
  std::vector<OwnedFrame> frames;
  wire::FrameReader reader;
  std::byte buf[16 * 1024];
  while (frames.size() < count) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout.count())) <= 0) break;
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reader.feed({buf, static_cast<std::size_t>(n)});
    while (auto frame = reader.next()) {
      frames.push_back({frame->type, frame->flags, frame->request_id,
                        {frame->payload.begin(), frame->payload.end()}});
    }
  }
  return frames;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit =
                               std::chrono::milliseconds(5000)) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// `fleet_r` is a serve::Response or a wire::PredictResult.
template <typename Answer>
void expect_identical(const Answer& fleet_r, const serve::Response& direct_r,
                      std::size_t i) {
  EXPECT_EQ(fleet_r.predicted, direct_r.predicted) << "query " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fleet_r.confidence),
            std::bit_cast<std::uint64_t>(direct_r.confidence))
      << "query " << i;
  EXPECT_EQ(fleet_r.trusted, direct_r.trusted) << "query " << i;
  EXPECT_EQ(fleet_r.degraded, direct_r.degraded) << "query " << i;
  EXPECT_EQ(fleet_r.abstained, direct_r.abstained) << "query " << i;
  EXPECT_EQ(fleet_r.model_version, direct_r.model_version) << "query " << i;
}

// ----------------------------------------------------------- in-process --

TEST(Fleet, InProcessPredictionsBitIdenticalToDirectServer) {
  const auto w = make_world(0x11);
  auto fleet = make_fleet(w, 3);

  serve::ServerConfig direct_config;
  direct_config.worker_threads = 2;
  direct_config.enable_recovery = false;
  serve::Server direct(w.model, direct_config);

  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    auto fleet_future = fleet.submit(/*tenant_id=*/i, w.queries[i]);
    auto direct_future = direct.submit(w.queries[i]);
    expect_identical(fleet_future.get(), direct_future.get(), i);
  }
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.total.completed, w.queries.size());
  EXPECT_EQ(stats.failovers, 0u);
  fleet.shutdown();
  direct.shutdown();
}

TEST(Fleet, TenantsSpreadAcrossShardsAndRoutingIsStable) {
  const auto w = make_world(0x22);
  auto fleet = make_fleet(w, 4);
  std::vector<std::size_t> per_shard(4, 0);
  for (std::uint64_t t = 0; t < 2000; ++t) {
    const auto d = fleet.route(t);
    EXPECT_EQ(d.shard, fleet.router().route(t));
    ++per_shard[d.shard];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(per_shard[s], 0u) << "shard " << s << " owns no tenants";
  }
  fleet.shutdown();
}

TEST(Fleet, RejectsMixedDimensions) {
  const auto a = make_world(0x31);
  util::Xoshiro256 rng(1);
  std::vector<hv::BinVec> train;
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) {
    train.push_back(hv::BinVec::random(kDim / 2, rng));
    labels.push_back(i % 2);
  }
  auto other = model::HdcModel::train(train, labels, 2, {});
  std::vector<model::HdcModel> models;
  models.push_back(a.model);
  models.push_back(std::move(other));
  EXPECT_THROW(Fleet(std::move(models)), std::invalid_argument);
}

// ------------------------------------------------------------- over TCP --

TEST(Fleet, TcpPredictionsBitIdenticalToDirectServer) {
  const auto w = make_world(0x33);
  serve::ServerConfig direct_config;
  direct_config.worker_threads = 2;
  direct_config.enable_recovery = false;
  serve::Server direct(w.model, direct_config);

  // An idle shard's requests are answered on the frontend loop itself; a
  // lingering shard keeps every one on its workers. Either way the answers
  // are the direct server's, bit for bit.
  for (const auto linger :
       {std::chrono::microseconds(0), std::chrono::microseconds(200)}) {
    SCOPED_TRACE("batch_linger_us=" + std::to_string(linger.count()));
    auto fleet = make_fleet(w, 2, 256, linger);
    Frontend frontend(fleet);
    frontend.start();
    const auto ports = frontend.ports();
    ASSERT_EQ(ports.size(), 2u);

    std::vector<Endpoint> endpoints;
    std::vector<std::string> groups;
    for (const auto port : ports) {
      endpoints.push_back({"127.0.0.1", port});
      groups.push_back("default");
    }
    Client client(std::move(endpoints), std::move(groups));

    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      const auto over_wire = client.predict(/*tenant_id=*/i, w.queries[i]);
      ASSERT_TRUE(over_wire.ok) << over_wire.error_message;
      const auto direct_r = direct.submit(w.queries[i]).get();
      EXPECT_EQ(over_wire.predicted, direct_r.predicted) << "query " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(over_wire.confidence),
                std::bit_cast<std::uint64_t>(direct_r.confidence))
          << "query " << i;
      EXPECT_EQ(over_wire.trusted, direct_r.trusted) << "query " << i;
      EXPECT_EQ(over_wire.degraded, direct_r.degraded) << "query " << i;
      EXPECT_EQ(over_wire.abstained, direct_r.abstained) << "query " << i;
      EXPECT_EQ(over_wire.model_version, direct_r.model_version)
          << "query " << i;
      // Client-side routing agreed with the fleet's router.
      EXPECT_EQ(over_wire.shard, fleet.router().route(i)) << "query " << i;
      EXPECT_FALSE(over_wire.failover);
    }
    EXPECT_EQ(client.counters().responses, w.queries.size());
    EXPECT_EQ(client.counters().transport_errors, 0u);
    // Every frame was a predict request (hedges included). A fresh
    // shard's first batch goes to a worker, which measures what the
    // hand-off costs; a lingering shard is never answered on the loop.
    const auto counters = frontend.counters();
    EXPECT_GE(counters.frames_in, w.queries.size());
    if (linger.count() == 0) {
      EXPECT_LE(counters.answered_inline + ports.size(), counters.frames_in);
    } else {
      EXPECT_EQ(counters.answered_inline, 0u);
    }

    frontend.stop();
    fleet.shutdown();
  }
  direct.shutdown();
}

TEST(Fleet, BurstBeyondOneBatchIsAnsweredOnceEachAndReachesTheWorkers) {
  const auto w = make_world(0x34);
  std::vector<model::HdcModel> models;
  models.push_back(w.model);
  FleetConfig config;
  ShardConfig shard;
  shard.server.worker_threads = 2;
  shard.server.enable_recovery = false;
  shard.server.max_batch = 4;
  config.shards.push_back(std::move(shard));
  Fleet fleet(std::move(models), std::move(config));
  Frontend frontend(fleet);
  frontend.start();

  serve::ServerConfig direct_config;
  direct_config.worker_threads = 1;
  direct_config.enable_recovery = false;
  serve::Server direct(w.model, direct_config);

  // A few requests first, so the shard has measured the hand-off and its
  // service time, and the loop may answer the burst's first batch itself.
  constexpr std::uint64_t kWarm = 8;
  constexpr std::uint64_t kBurst = 64;
  const auto query_of = [&](std::uint64_t id) {
    return w.queries[id % w.queries.size()];
  };
  const int fd = connect_loopback(frontend.ports()[0]);
  ASSERT_GE(fd, 0);
  for (std::uint64_t id = kBurst + 1; id <= kBurst + kWarm; ++id) {
    std::vector<std::byte> warm;
    wire::append_predict_request(warm, /*tenant_id=*/1, id, query_of(id));
    send_prefix(fd, warm, warm.size());
    ASSERT_EQ(read_frames(fd, 1, std::chrono::seconds(5)).size(), 1u);
  }

  // One write, 16 batches' worth: the loop answers at most one batch
  // itself and queues the rest for the shard's workers.
  std::vector<std::byte> burst;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    wire::append_predict_request(burst, /*tenant_id=*/1, id, query_of(id));
  }
  send_prefix(fd, burst, burst.size());
  const auto frames = read_frames(fd, kBurst, std::chrono::seconds(5));
  ASSERT_EQ(frames.size(), kBurst);
  EXPECT_TRUE(read_frames(fd, 1, std::chrono::milliseconds(50)).empty());

  std::vector<int> seen(kBurst + 1, 0);
  for (const auto& f : frames) {
    ASSERT_EQ(f.type, wire::FrameType::kPredictResponse);
    ASSERT_GE(f.request_id, 1u);
    ASSERT_LE(f.request_id, kBurst);
    ++seen[f.request_id];
    const auto result = wire::parse_predict_response(f.view());
    ASSERT_TRUE(result.has_value());
    expect_identical(*result, direct.submit(query_of(f.request_id)).get(),
                     f.request_id);
  }
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    EXPECT_EQ(seen[id], 1) << "request " << id;
  }
  EXPECT_LT(frontend.counters().answered_inline, kBurst)
      << "the rest reached the workers";
  EXPECT_EQ(fleet.shard(0).server().stats().completed, kBurst + kWarm);

  ::close(fd);
  frontend.stop();
  fleet.shutdown();
  direct.shutdown();
}

TEST(Fleet, PingAndDimensionMismatchOverTcp) {
  const auto w = make_world(0x44);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  Client client({{"127.0.0.1", frontend.ports()[0]}}, {"default"});

  EXPECT_TRUE(client.ping(0));

  util::Xoshiro256 rng(3);
  const auto wrong = hv::BinVec::random(kDim + 64, rng);
  const auto response = client.predict(0, wrong);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, wire::ErrorCode::kDimensionMismatch);
  // The connection survives a well-framed bad request.
  const auto good = client.predict(0, w.queries[0]);
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(frontend.counters().dimension_rejections, 1u);

  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, MalformedConnectionIsClosedWithoutCollateralDamage) {
  const auto w = make_world(0x55);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  const auto port = frontend.ports()[0];

  // A healthy client first.
  Client client({{"127.0.0.1", port}}, {"default"});
  ASSERT_TRUE(client.predict(1, w.queries[0]).ok);

  // Raw garbage on a second connection: the frontend must poison and
  // close it (recv eventually returns 0) without touching the client.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  std::vector<char> garbage(4096, 'z');
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  char buf[64];
  const auto n = ::recv(fd, buf, sizeof buf, 0);  // blocks until close
  EXPECT_LE(n, 0);
  ::close(fd);

  EXPECT_GE(frontend.counters().protocol_errors, 1u);
  // The well-behaved connection still works.
  EXPECT_TRUE(client.predict(2, w.queries[1]).ok);

  frontend.stop();
  fleet.shutdown();
}

// ------------------------------------------- degradation ladder, end-to-end

/// Shard config with a manually driven sentinel (period 0) whose canary
/// labels are deliberately wrong, so one run_round() trips the breaker
/// and it stays open (reload cannot fix mislabeled canaries).
ShardConfig breaker_trap_shard(const World& w) {
  ShardConfig shard;
  shard.server.worker_threads = 1;
  shard.server.enable_recovery = false;
  shard.server.sentinel.enabled = true;
  shard.server.sentinel.period = std::chrono::milliseconds(0);
  shard.server.sentinel.breaker_floor = 0.9;
  shard.server.sentinel.breaker_window = 1;
  shard.server.sentinel.breaker_reload_retries = 1;
  shard.server.sentinel.breaker_backoff = std::chrono::milliseconds(1);
  shard.server.canaries.assign(w.queries.begin(), w.queries.begin() + 20);
  shard.server.canary_labels.assign(20, -7);  // never correct
  return shard;
}

TEST(Fleet, OpenBreakerAbstainsOverTheWireOnSingleShard) {
  const auto w = make_world(0x66);
  std::vector<model::HdcModel> models;
  models.push_back(w.model);
  FleetConfig config;
  config.shards.push_back(breaker_trap_shard(w));
  Fleet fleet(std::move(models), std::move(config));

  fleet.shard(0).server().sentinel()->run_round();  // trip
  ASSERT_TRUE(fleet.shard(0).server().breaker_open());
  EXPECT_FALSE(fleet.shard(0).healthy());

  Frontend frontend(fleet);
  frontend.start();
  Client client({{"127.0.0.1", frontend.ports()[0]}}, {"default"});

  const auto response = client.predict(5, w.queries[0]);
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(response.abstained);
  EXPECT_EQ(response.predicted, -1);

  // The client marked the shard unhealthy; with no same-group failover
  // the router still targets it (all_unhealthy) and keeps shedding.
  const auto again = client.predict(5, w.queries[0]);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.abstained);

  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, ServerSideFailoverRoutesAroundOpenBreaker) {
  const auto w = make_world(0x77);
  std::vector<model::HdcModel> models;
  models.push_back(w.model);
  models.push_back(w.model);
  FleetConfig config;
  config.shards.push_back(breaker_trap_shard(w));
  ShardConfig healthy;
  healthy.server.worker_threads = 1;
  healthy.server.enable_recovery = false;
  config.shards.push_back(std::move(healthy));
  Fleet fleet(std::move(models), std::move(config));

  fleet.shard(0).server().sentinel()->run_round();
  ASSERT_TRUE(fleet.shard(0).server().breaker_open());

  // Find a tenant whose primary is the tripped shard.
  std::uint64_t victim = 0;
  while (fleet.router().route(victim) != 0) ++victim;

  const auto d = fleet.route(victim);
  EXPECT_TRUE(d.failover);
  EXPECT_EQ(d.shard, 1u);

  // In-process: the fleet answers from the healthy twin, not abstained.
  auto response = fleet.submit(victim, w.queries[0]).get();
  EXPECT_FALSE(response.abstained);
  EXPECT_GE(response.predicted, 0);

  // Over the wire, even when the client connects to the tripped shard's
  // own port, the server-side router rescues the request.
  Frontend frontend(fleet);
  frontend.start();
  {
    std::vector<Endpoint> only_tripped{{"127.0.0.1", frontend.ports()[0]}};
    Client client(std::move(only_tripped), {"default"});
    const auto wire_response = client.predict(victim, w.queries[0]);
    ASSERT_TRUE(wire_response.ok) << wire_response.error_message;
    EXPECT_FALSE(wire_response.abstained);
    EXPECT_EQ(wire_response.predicted, response.predicted);
  }
  EXPECT_GE(fleet.stats().failovers, 2u);

  // Recovery: close the breaker path by healing the router view — once
  // the shard reports healthy again the original assignment returns.
  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, QuarantineDegradedFlagPropagatesOverTheWire) {
  const auto w = make_world(0x88);
  std::vector<model::HdcModel> models;
  models.push_back(w.model);
  FleetConfig config;
  ShardConfig shard;
  shard.server.worker_threads = 1;
  shard.server.enable_recovery = false;  // direct-publish fault injection
  shard.server.sentinel.enabled = true;
  shard.server.sentinel.period = std::chrono::milliseconds(0);
  // Light random damage drifts every chunk past the threshold; the 0.5
  // quarantine cap keeps the worst half (same recipe as resilience_test).
  shard.server.sentinel.chunk_drift_threshold = 0.01;
  shard.server.sentinel.bad_streak = 1;
  shard.server.sentinel.good_streak = 1000;   // hold quarantine for the test
  shard.server.sentinel.breaker_floor = 0.0;  // never trip in this test
  shard.server.canaries.assign(w.queries.begin(), w.queries.begin() + 20);
  shard.server.canary_labels.assign(w.labels.begin(), w.labels.begin() + 20);
  config.shards.push_back(std::move(shard));
  Fleet fleet(std::move(models), std::move(config));

  fleet.shard(0).server().inject_faults(0.05, fault::AttackMode::kRandom, 7);
  fleet.shard(0).server().sentinel()->run_round();
  ASSERT_GT(fleet.shard(0).server().stats().quarantined_chunks, 0u);

  Frontend frontend(fleet);
  frontend.start();
  Client client({{"127.0.0.1", frontend.ports()[0]}}, {"default"});
  const auto response = client.predict(3, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.abstained);
  EXPECT_GE(response.predicted, 0);

  const auto stats = fleet.stats();
  EXPECT_GT(stats.shards[0].quarantined_chunks, 0u);
  EXPECT_GE(stats.total.degraded_responses, 1u);

  frontend.stop();
  fleet.shutdown();
}

// ------------------------------------------- deadlines and admission --

TEST(Fleet, TrySubmitShedsPastDeadlineAndAcceptsLiveOne) {
  const auto w = make_world(0x99);
  auto fleet = make_fleet(w, 1);
  auto completions = std::make_shared<serve::CompletionQueue>();
  // The frontend's entry points: one routing decision, deadline triage,
  // then the queue path.
  const std::size_t shard = fleet.route(0).shard;
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(fleet.shed_expired(past));
  EXPECT_EQ(fleet.stats().deadline_sheds, 1u);

  const auto live_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_FALSE(fleet.shed_expired(live_deadline));
  EXPECT_FALSE(
      fleet.shed_expired(std::chrono::steady_clock::time_point::max()));
  const auto live = fleet.try_submit_to(shard, w.queries[0], live_deadline,
                                        completions, /*tag=*/2);
  ASSERT_EQ(live, SubmitReject::kNone);
  EXPECT_EQ(fleet.stats().deadline_sheds, 1u);
  pollfd pfd{completions->fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  std::vector<serve::Completion> done;
  completions->drain(done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].tag, 2u);
  EXPECT_EQ(done[0].status, serve::CompletionStatus::kAnswered);
  EXPECT_FALSE(done[0].response.expired);
  EXPECT_GE(done[0].response.predicted, 0);

  // The queue path refuses a spent budget on its own too, and completes
  // nothing for it.
  EXPECT_EQ(fleet.try_submit_to(shard, w.queries[0], past, completions,
                                /*tag=*/3),
            SubmitReject::kDeadline);
  EXPECT_EQ(fleet.stats().deadline_sheds, 2u);
  EXPECT_THROW(fleet.try_submit_to(fleet.shard_count(), w.queries[0],
                                   live_deadline, completions, /*tag=*/4),
               std::out_of_range);
  fleet.shutdown();
  completions->drain(done);
  EXPECT_TRUE(done.empty());
}

TEST(Fleet, LegacyClientWithoutDeadlinesStillServed) {
  const auto w = make_world(0xaa);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();

  ClientConfig config;
  config.send_deadline = false;  // emits version-0 frames, bit for bit
  Client client({{"127.0.0.1", frontend.ports()[0]}}, {"default"},
                std::move(config));
  const auto response = client.predict(0, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_GE(response.predicted, 0);
  EXPECT_EQ(frontend.counters().deadline_sheds, 0u);

  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, SlowlorisPartialFrameIsReaped) {
  const auto w = make_world(0xbb);
  auto fleet = make_fleet(w, 1);
  FrontendConfig fc;
  fc.read_deadline = std::chrono::milliseconds(50);
  Frontend frontend(fleet, fc);
  frontend.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(frontend.ports()[0]);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  // First 8 bytes of a valid header (magic + type + flags + version),
  // then silence: a classic slowloris holding a torn frame open.
  std::array<unsigned char, 8> partial{0x52, 0x48, 0x46, 0x31, 1, 0, 0, 0};
  ASSERT_GT(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL), 0);
  timeval tv{2, 0};  // bound the blocking recv so a regression fails fast
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[16];
  const auto n = ::recv(fd, buf, sizeof buf, 0);
  EXPECT_LE(n, 0);  // the reaper closed us, no bytes arrived
  ::close(fd);
  EXPECT_GE(frontend.counters().reaped_connections, 1u);

  frontend.stop();
  fleet.shutdown();
}

// ------------------------------------------------------ completion path --

TEST(Fleet, StaleCompletionIsNeverFramedToAReusedFd) {
  const auto w = make_world(0xd1);
  std::vector<model::HdcModel> models;
  models.push_back(w.model);
  FleetConfig config;
  ShardConfig shard;
  shard.server.worker_threads = 1;
  shard.server.enable_recovery = false;
  // The worker holds an underfull batch open this long, so the request
  // below is still in flight when its connection closes and a new one
  // takes over the fd number.
  shard.server.max_batch = 64;
  shard.server.batch_linger = std::chrono::milliseconds(1000);
  config.shards.push_back(std::move(shard));
  Fleet fleet(std::move(models), std::move(config));
  Frontend frontend(fleet);
  frontend.start();
  const auto port = frontend.ports()[0];

  const int first = connect_loopback(port);
  ASSERT_GE(first, 0);
  ASSERT_TRUE(eventually(
      [&] { return frontend.counters().connections_accepted == 1; }));
  const int first_server_fd = accepted_fd_for(first, port);
  ASSERT_GE(first_server_fd, 0);
  // Created now, connected later: the lowest free fd the frontend's next
  // accept() can take is then the one the first connection gives up.
  const int second = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(second, 0);

  std::vector<std::byte> request;
  wire::append_predict_request(request, 3, /*request_id=*/7, w.queries[0]);
  send_prefix(first, request, request.size());
  ASSERT_TRUE(eventually(
      [&] { return fleet.shard(0).server().stats().submitted == 1; }));
  (void)::shutdown(first, SHUT_WR);  // EOF: the frontend closes its side
  ASSERT_TRUE(eventually(
      [&] { return frontend.counters().connections_closed == 1; }));

  ASSERT_TRUE(connect_to(second, port));
  ASSERT_TRUE(eventually(
      [&] { return frontend.counters().connections_accepted == 2; }));
  ASSERT_EQ(accepted_fd_for(second, port), first_server_fd)
      << "the new connection must reuse the closed one's fd number";
  ASSERT_EQ(fleet.shard(0).server().stats().completed, 0u)
      << "the request must still be in flight when its fd is reused";

  // The request completes while the new peer holds the fd: dropped.
  ASSERT_TRUE(eventually(
      [&] { return frontend.counters().stale_completions == 1; }));
  std::vector<std::byte> ping;
  wire::append_frame(ping, wire::FrameType::kPing, 0, 0, /*request_id=*/9,
                     {});
  send_prefix(second, ping, ping.size());
  const auto frames =
      read_frames(second, 2, std::chrono::milliseconds(200));
  ASSERT_EQ(frames.size(), 1u) << "only the pong may reach the new peer";
  EXPECT_EQ(frames[0].type, wire::FrameType::kPong);
  EXPECT_EQ(frames[0].request_id, 9u);

  ::close(first);
  ::close(second);
  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, ShutdownWithQueuedRequestsFramesEachAcceptedRequestOnce) {
  const auto w = make_world(0xd2);
  std::vector<model::HdcModel> models;
  models.push_back(w.model);
  FleetConfig config;
  ShardConfig shard;
  shard.server.worker_threads = 1;
  shard.server.enable_recovery = false;
  shard.server.queue_capacity = 16;
  shard.server.max_batch = 256;
  shard.server.batch_linger = std::chrono::milliseconds(200);
  config.shards.push_back(std::move(shard));
  Fleet fleet(std::move(models), std::move(config));
  Frontend frontend(fleet);
  frontend.start();

  const int fd = connect_loopback(frontend.ports()[0]);
  ASSERT_GE(fd, 0);
  constexpr std::uint64_t kBurst = 100;
  constexpr std::uint64_t kLate = 10;
  std::vector<std::byte> burst;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    wire::append_predict_request(burst, 1, id,
                                 w.queries[id % w.queries.size()]);
  }
  send_prefix(fd, burst, burst.size());
  ASSERT_TRUE(eventually(
      [&] { return frontend.counters().frames_in == kBurst; }));
  // The worker is still lingering over its batch: shut the fleet down
  // under it, then keep talking to the frontend.
  fleet.shutdown();
  std::vector<std::byte> late;
  for (std::uint64_t id = kBurst + 1; id <= kBurst + kLate; ++id) {
    wire::append_predict_request(late, 1, id, w.queries[0]);
  }
  send_prefix(fd, late, late.size());

  const auto frames =
      read_frames(fd, kBurst + kLate + 1, std::chrono::milliseconds(500));
  ASSERT_EQ(frames.size(), kBurst + kLate);
  std::vector<int> seen(kBurst + kLate + 1, 0);
  std::uint64_t answered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t busy = 0;
  for (const auto& f : frames) {
    ASSERT_GE(f.request_id, 1u);
    ASSERT_LE(f.request_id, kBurst + kLate);
    ++seen[f.request_id];
    if (f.type == wire::FrameType::kPredictResponse) {
      ++answered;
      continue;
    }
    ASSERT_EQ(f.type, wire::FrameType::kError);
    const auto info = wire::parse_error(f.payload);
    ASSERT_TRUE(info.has_value());
    if (info->code == wire::ErrorCode::kShuttingDown) {
      ++dropped;
    } else {
      ASSERT_EQ(info->code, wire::ErrorCode::kBusy) << info->message;
      ++busy;
    }
  }
  for (std::uint64_t id = 1; id <= kBurst + kLate; ++id) {
    EXPECT_EQ(seen[id], 1) << "request " << id;
  }
  const auto accepted = fleet.shard(0).server().stats().submitted;
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(answered + dropped, accepted);
  EXPECT_EQ(busy, kBurst + kLate - accepted);
  EXPECT_EQ(frontend.counters().stale_completions, 0u);

  ::close(fd);
  frontend.stop();
}

TEST(Fleet, ShutdownDuringLoopAnswersFramesEachRequestOnceAndDrains) {
  // Clients keep a shard busy, answered on its loop or by its workers,
  // while Fleet::shutdown() runs. Every request gets exactly one frame:
  // an answer, or kBusy / kShuttingDown once the shard is down. Nothing
  // is answered after the shutdown, and what drain() waits for (every
  // accepted request completed, every trust offer processed) is done.
  const auto w = make_world(0xd5);
  constexpr int kRounds = 12;
  constexpr std::uint64_t kClients = 2;
  constexpr std::uint64_t kPerBurst = 2;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<model::HdcModel> models;
    models.push_back(w.model);
    FleetConfig config;
    ShardConfig shard;
    shard.server.worker_threads = 1;
    config.shards.push_back(std::move(shard));
    Fleet fleet(std::move(models), std::move(config));
    auto& server = fleet.shard(0).server();
    Frontend frontend(fleet);
    frontend.start();
    const auto port = frontend.ports()[0];

    // Each client pipelines a burst and waits for exactly one frame per
    // request.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> answered{0};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> clients;
    for (std::uint64_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int fd = connect_loopback(port);
        if (fd < 0) {
          bad.fetch_add(1);
          return;
        }
        std::uint64_t first_id = (c + 1) << 32;
        while (!stop.load()) {
          std::vector<std::byte> out;
          for (std::uint64_t k = 0; k < kPerBurst; ++k) {
            wire::append_predict_request(
                out, /*tenant_id=*/1, first_id + k,
                w.queries[(first_id + k) % w.queries.size()]);
          }
          send_prefix(fd, out, out.size());
          sent.fetch_add(kPerBurst);
          const auto frames =
              read_frames(fd, kPerBurst, std::chrono::seconds(5));
          std::vector<int> seen(kPerBurst, 0);
          for (const auto& f : frames) {
            if (f.request_id < first_id ||
                f.request_id >= first_id + kPerBurst ||
                ++seen[f.request_id - first_id] != 1) {
              bad.fetch_add(1);
              continue;
            }
            if (f.type == wire::FrameType::kPredictResponse) {
              answered.fetch_add(1);
              continue;
            }
            const auto info = f.type == wire::FrameType::kError
                                  ? wire::parse_error(f.payload)
                                  : std::nullopt;
            if (info && (info->code == wire::ErrorCode::kBusy ||
                         info->code == wire::ErrorCode::kShuttingDown)) {
              refused.fetch_add(1);
            } else {
              bad.fetch_add(1);
            }
          }
          if (frames.size() != kPerBurst) bad.fetch_add(1);
          first_id += kPerBurst;
        }
        ::close(fd);
      });
    }

    ASSERT_TRUE(eventually([&] { return server.stats().completed >= 64; }));
    fleet.shutdown();
    const auto submitted_at_shutdown = server.stats().submitted;
    // Keep talking to the frontend a little after the shutdown.
    const auto refused_at_shutdown = refused.load();
    ASSERT_TRUE(eventually([&] {
      return refused.load() >= refused_at_shutdown + kClients * kPerBurst;
    }));
    stop.store(true);
    for (auto& t : clients) t.join();

    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(answered.load() + refused.load(), sent.load());
    EXPECT_EQ(server.stats().submitted, submitted_at_shutdown)
        << "nothing may be answered after shutdown()";
    const auto s = server.stats();
    EXPECT_EQ(s.completed, s.submitted);
    EXPECT_EQ(s.scrub_processed, s.scrub_offered)
        << "an offer landed in the stopped scrubber's ring";
    EXPECT_GT(s.scrub_offered, 0u);
    if (s.completed == s.submitted && s.scrub_processed == s.scrub_offered) {
      fleet.drain();
    }
    frontend.stop();
  }
}

TEST(Fleet, HeavyShardKeepsItsRequestsOnTheWorkers) {
  // A thousand classes at D = 16,384: scoring one query costs far more
  // than handing it to a worker, so the loop never scores a batch itself
  // and the shard's two workers share them.
  constexpr std::size_t kWideDim = 16384;
  constexpr std::size_t kManyClasses = 1024;
  util::Xoshiro256 rng(0xd6);
  std::vector<hv::BinVec> prototypes;
  std::vector<int> labels;
  for (std::size_t c = 0; c < kManyClasses; ++c) {
    prototypes.push_back(hv::BinVec::random(kWideDim, rng));
    labels.push_back(static_cast<int>(c));
  }
  model::HdcConfig model_config;
  model_config.retrain_epochs = 0;
  std::vector<model::HdcModel> models;
  models.push_back(
      model::HdcModel::train(prototypes, labels, kManyClasses, model_config));
  FleetConfig config;
  ShardConfig shard;
  shard.server.worker_threads = 2;
  shard.server.enable_recovery = false;
  config.shards.push_back(std::move(shard));
  Fleet fleet(std::move(models), std::move(config));
  Frontend frontend(fleet);
  frontend.start();
  const int fd = connect_loopback(frontend.ports()[0]);
  ASSERT_GE(fd, 0);

  constexpr std::uint64_t kPerBurst = 8;
  std::uint64_t sent = 0;
  const auto burst = [&] {
    std::vector<std::byte> out;
    for (std::uint64_t k = 0; k < kPerBurst; ++k, ++sent) {
      wire::append_predict_request(out, /*tenant_id=*/1, sent,
                                   prototypes[sent]);
    }
    send_prefix(fd, out, out.size());
    const auto frames = read_frames(fd, kPerBurst, std::chrono::seconds(10));
    ASSERT_EQ(frames.size(), kPerBurst);
    for (const auto& f : frames) {
      ASSERT_EQ(f.type, wire::FrameType::kPredictResponse);
      const auto result = wire::parse_predict_response(f.view());
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->predicted, static_cast<int>(f.request_id));
    }
  };
  // Until the shard has measured Server::kMinHandoffs hand-offs, the loop
  // hands every batch to a worker without weighing costs. Send bursts
  // until it has them, so the bursts after test the cost comparison.
  const auto handoffs = [&] {
    return fleet.shard(0).server().stats().handoff.count;
  };
  for (int b = 0; b < 64 && handoffs() < serve::Server::kMinHandoffs; ++b) {
    ASSERT_NO_FATAL_FAILURE(burst());
  }
  ASSERT_GE(handoffs(), serve::Server::kMinHandoffs);
  for (int b = 0; b < 4; ++b) ASSERT_NO_FATAL_FAILURE(burst());
  EXPECT_EQ(frontend.counters().answered_inline, 0u);
  EXPECT_EQ(fleet.shard(0).server().stats().completed, sent);

  ::close(fd);
  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, LoopAnsweredShardKeepsMeasuringItsHandOff) {
  // A light shard: once it has its hand-off samples, the loop answers its
  // batches itself, so its workers would measure no more hand-offs. One
  // inline-eligible batch in Server::kHandoffRefresh goes to a worker
  // anyway and adds a sample. Counted, not timed: the worker idles
  // between those batches, so each of them is a hand-off.
  const auto w = make_world(0xd7);
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();
  const int fd = connect_loopback(frontend.ports()[0]);
  ASSERT_GE(fd, 0);

  std::uint64_t sent = 0;
  const auto round_trip = [&] {
    const std::size_t q = sent % w.queries.size();
    std::vector<std::byte> out;
    wire::append_predict_request(out, /*tenant_id=*/1, sent++, w.queries[q]);
    send_prefix(fd, out, out.size());
    const auto frames = read_frames(fd, 1, std::chrono::seconds(10));
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, wire::FrameType::kPredictResponse);
    const auto result = wire::parse_predict_response(frames[0].view());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->predicted, w.labels[q]);
  };
  const auto& server = fleet.shard(0).server();
  const auto handoffs = [&] { return server.stats().handoff.count; };
  const auto answered_inline = [&] {
    return frontend.counters().answered_inline;
  };
  for (int i = 0; i < 512 && answered_inline() == 0; ++i) {
    ASSERT_NO_FATAL_FAILURE(round_trip());
  }
  ASSERT_GT(answered_inline(), 0u) << "the loop never answered inline";
  ASSERT_GE(handoffs(), serve::Server::kMinHandoffs);

  const auto handoffs_before = handoffs();
  const auto inline_before = answered_inline();
  constexpr std::uint64_t kRefreshes = 4;
  constexpr std::uint64_t kRequests =
      kRefreshes * serve::Server::kHandoffRefresh;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_NO_FATAL_FAILURE(round_trip());
  }
  EXPECT_GE(handoffs() - handoffs_before, kRefreshes);
  EXPECT_GE(answered_inline() - inline_before, kRequests / 2)
      << "the loop stopped answering the shard";
  EXPECT_EQ(server.stats().completed, sent);

  ::close(fd);
  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, ReapersWakeTheLoopOnTheirOwnDeadlines) {
  // No traffic and no poll tick: the only thing that can wake the loop
  // for these connections is the reapers' own deadlines.
  const auto w = make_world(0xd3);
  auto fleet = make_fleet(w, 1);
  FrontendConfig fc;
  fc.read_deadline = std::chrono::milliseconds(60);
  fc.idle_timeout = std::chrono::milliseconds(250);
  Frontend frontend(fleet, fc);
  frontend.start();
  const auto port = frontend.ports()[0];

  const auto t0 = std::chrono::steady_clock::now();
  const int idle = connect_loopback(port);
  const int slow = connect_loopback(port);
  ASSERT_GE(idle, 0);
  ASSERT_GE(slow, 0);
  std::array<unsigned char, 8> partial{0x52, 0x48, 0x46, 0x31, 1, 0, 0, 0};
  ASSERT_GT(::send(slow, partial.data(), partial.size(), MSG_NOSIGNAL), 0);

  const auto closed_after = [&](int fd) {
    char buf[16];
    pollfd pfd{fd, POLLIN, 0};
    (void)::poll(&pfd, 1, 3000);
    const auto n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    EXPECT_LE(n, 0);
    return std::chrono::steady_clock::now() - t0;
  };
  const auto slow_closed = closed_after(slow);
  const auto idle_closed = closed_after(idle);
  EXPECT_GE(slow_closed, fc.read_deadline);
  EXPECT_GE(idle_closed, fc.idle_timeout);
  EXPECT_LT(slow_closed, idle_closed);
  EXPECT_LT(idle_closed, std::chrono::milliseconds(2500));
  EXPECT_EQ(frontend.counters().reaped_connections, 2u);

  ::close(idle);
  ::close(slow);
  frontend.stop();
  fleet.shutdown();
}

// ------------------------------------------------ client retry policy --

TEST(Fleet, BusyErrorFrameIsRetriedNotTerminal) {
  const auto w = make_world(0xcc);
  // Regression: wire.hpp documents kBusy as "retry later", but the
  // client used to treat any error frame as terminal.
  FakeWireServer server([](int fd, const wire::Frame& frame,
                           std::uint64_t ordinal) {
    if (ordinal == 1) {
      std::vector<std::byte> out;
      wire::append_error(out, frame.tenant_id, frame.request_id,
                         wire::ErrorCode::kBusy, "queue full, retry later");
      send_prefix(fd, out, out.size());
      return true;
    }
    return reply_predict(fd, frame, 2);
  });

  ClientConfig config;
  config.retry.initial_backoff = std::chrono::milliseconds(1);
  Client client({{"127.0.0.1", server.port()}}, {"default"},
                std::move(config));
  const auto response = client.predict(7, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.predicted, 2);
  EXPECT_EQ(response.attempts, 2u);
  EXPECT_EQ(client.counters().retries, 1u);
  EXPECT_EQ(client.counters().server_errors, 1u);
  // kBusy is backpressure, not sickness: the connection survives and
  // the shard is not marked unhealthy.
  EXPECT_EQ(client.counters().reconnects, 0u);
  EXPECT_TRUE(client.router().healthy(0));
}

TEST(Fleet, ConnectTimeoutFailsFastOnSaturatedBacklog) {
  // A listener that never accepts, with its accept queue pre-filled, so
  // further SYNs are dropped — the classic blackholed-endpoint shape.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listen_fd, 0), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  std::vector<int> fillers;
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    set_nonblocking_fd(fd);
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto w = make_world(0xdd, /*queries_per_class=*/1);
  ClientConfig config;
  config.connect_timeout = std::chrono::milliseconds(150);
  config.response_timeout = std::chrono::milliseconds(1000);
  config.retry.max_attempts = 1;
  Client client({{"127.0.0.1", ntohs(addr.sin_port)}}, {"default"},
                std::move(config));
  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.predict(0, w.queries[0]);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(response.ok);
  EXPECT_GE(client.counters().connect_timeouts, 1u);
  EXPECT_GE(client.counters().transport_errors, 1u);
  // Two bounded connect attempts (route + one re-route), not a
  // kernel-default multi-minute hang.
  EXPECT_LT(elapsed, std::chrono::milliseconds(900));

  for (const int fd : fillers) ::close(fd);
  ::close(listen_fd);
}

TEST(Fleet, StalledShardTimesOutAndFailsOver) {
  const auto w = make_world(0xee, /*queries_per_class=*/2);
  // Shard 0 from the client's view: accepts and reads, never answers.
  FakeWireServer stall([](int, const wire::Frame&, std::uint64_t) {
    return true;
  });
  // Shard 1: a real single-shard fleet behind a frontend.
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();

  ClientConfig config;
  config.retry.attempt_timeout = std::chrono::milliseconds(100);
  config.retry.initial_backoff = std::chrono::milliseconds(1);
  config.response_timeout = std::chrono::milliseconds(2000);
  Client client(
      {{"127.0.0.1", stall.port()}, {"127.0.0.1", frontend.ports()[0]}},
      {"default", "default"}, std::move(config));

  // A tenant whose primary is the stalled endpoint.
  Router reference({"default", "default"}, RouterConfig{});
  std::uint64_t victim = 0;
  while (reference.route(victim) != 0) ++victim;

  const auto response = client.predict(victim, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.shard, 1u);
  EXPECT_EQ(response.attempts, 2u);
  EXPECT_TRUE(response.failover);
  EXPECT_GE(client.counters().transport_errors, 1u);
  EXPECT_EQ(client.counters().retries, 1u);
  EXPECT_FALSE(client.router().healthy(0));

  frontend.stop();
  fleet.shutdown();
}

TEST(Fleet, MidResponseResetIsRetried) {
  const auto w = make_world(0xff, /*queries_per_class=*/2);
  // First request: 12 bytes of a valid response, then a hard RST — a
  // server dying mid-write. Second request (fresh connection): answers.
  FakeWireServer server([](int fd, const wire::Frame& frame,
                           std::uint64_t ordinal) {
    if (ordinal == 1) {
      wire::PredictResult result;
      result.predicted = 3;
      std::vector<std::byte> out;
      wire::append_predict_response(out, frame.tenant_id, frame.request_id,
                                    result);
      send_prefix(fd, out, 12);
      return false;  // RST with a torn frame on the wire
    }
    return reply_predict(fd, frame, 3);
  });

  ClientConfig config;
  config.retry.initial_backoff = std::chrono::milliseconds(1);
  config.unhealthy_cooldown = std::chrono::milliseconds(1);
  Client client({{"127.0.0.1", server.port()}}, {"default"},
                std::move(config));
  const auto response = client.predict(9, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.predicted, 3);
  EXPECT_EQ(response.attempts, 2u);
  EXPECT_GE(client.counters().transport_errors, 1u);
  EXPECT_GE(client.counters().reconnects, 1u);
  // The torn frame never surfaced as data: exactly one (valid) response.
  EXPECT_EQ(client.counters().responses, 1u);
}

TEST(Fleet, HedgedRequestRescuesSlowPrimary) {
  const auto w = make_world(0x101, /*queries_per_class=*/2);
  FakeWireServer stall([](int, const wire::Frame&, std::uint64_t) {
    return true;
  });
  auto fleet = make_fleet(w, 1);
  Frontend frontend(fleet);
  frontend.start();

  ClientConfig config;
  config.hedge.enabled = true;
  config.hedge.delay = std::chrono::milliseconds(10);
  config.retry.max_attempts = 1;  // isolate hedging from retries
  config.response_timeout = std::chrono::milliseconds(2000);
  Client client(
      {{"127.0.0.1", stall.port()}, {"127.0.0.1", frontend.ports()[0]}},
      {"default", "default"}, std::move(config));

  Router reference({"default", "default"}, RouterConfig{});
  std::uint64_t victim = 0;
  while (reference.route(victim) != 0) ++victim;

  const auto response = client.predict(victim, w.queries[0]);
  ASSERT_TRUE(response.ok) << response.error_message;
  EXPECT_TRUE(response.hedged);
  EXPECT_TRUE(response.hedge_won);
  EXPECT_EQ(response.shard, 1u);
  EXPECT_EQ(response.attempts, 1u);
  EXPECT_EQ(client.counters().hedged_requests, 1u);
  EXPECT_EQ(client.counters().hedge_wins, 1u);
  EXPECT_EQ(client.counters().retries, 0u);

  frontend.stop();
  fleet.shutdown();
}

}  // namespace
}  // namespace robusthd::fleet
