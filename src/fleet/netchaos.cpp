#include "robusthd/fleet/netchaos.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

#include "robusthd/util/rng.hpp"

namespace robusthd::fleet {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One proxied connection: client <-> proxy <-> upstream. Owned by the
/// single loop thread; no locks needed.
struct NetChaos::Pipe {
  int client_fd = -1;
  int upstream_fd = -1;
  std::size_t upstream = 0;
  util::Xoshiro256 rng;

  struct Chunk {
    std::vector<std::byte> data;
    Clock::time_point due;  ///< deliver no earlier than this
  };
  std::deque<Chunk> to_upstream;
  std::deque<Chunk> to_client;
  /// Bytes of the front chunk already written (throttling splits
  /// chunks mid-frame on purpose).
  std::size_t off_to_upstream = 0;
  std::size_t off_to_client = 0;

  bool client_open = true;
  bool upstream_open = true;
  bool dead = false;
};

NetChaos::NetChaos(std::vector<Endpoint> upstreams, NetChaosConfig config)
    : upstreams_(std::move(upstreams)), config_(std::move(config)) {
  if (upstreams_.empty()) {
    throw std::invalid_argument("NetChaos needs at least one upstream");
  }
  blackholed_ = std::make_unique<std::atomic<bool>[]>(upstreams_.size());
  for (std::size_t i = 0; i < upstreams_.size(); ++i) {
    blackholed_[i].store(false, std::memory_order_relaxed);
  }
}

NetChaos::~NetChaos() { stop(); }

void NetChaos::start() {
  if (started_) return;
  ports_.assign(upstreams_.size(), 0);
  listen_fds_.assign(upstreams_.size(), -1);
  for (std::size_t i = 0; i < upstreams_.size(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("netchaos: socket() failed");
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // always ephemeral — this is a test harness
    if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("netchaos: bad host " + config_.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, config_.backlog) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(std::string("netchaos: bind/listen: ") +
                               std::strerror(err));
    }
    socklen_t len = sizeof addr;
    (void)::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports_[i] = ntohs(addr.sin_port);
    set_nonblocking(fd);
    listen_fds_[i] = fd;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop_main(); });
  started_ = true;
}

void NetChaos::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  for (auto& pipe : pipes_) {
    if (pipe->client_fd >= 0) ::close(pipe->client_fd);
    if (pipe->upstream_fd >= 0) ::close(pipe->upstream_fd);
  }
  pipes_.clear();
  for (int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
  }
  listen_fds_.clear();
  started_ = false;
}

std::vector<Endpoint> NetChaos::endpoints() const {
  std::vector<Endpoint> out;
  out.reserve(ports_.size());
  for (const auto port : ports_) out.push_back({config_.host, port});
  return out;
}

void NetChaos::set_blackholed(std::size_t upstream, bool blackholed) {
  blackholed_[upstream].store(blackholed, std::memory_order_relaxed);
}

bool NetChaos::blackholed(std::size_t upstream) const {
  return blackholed_[upstream].load(std::memory_order_relaxed);
}


void NetChaos::accept_pending(std::size_t upstream) {
  for (;;) {
    const int client_fd = ::accept(listen_fds_[upstream], nullptr, nullptr);
    if (client_fd < 0) return;  // EAGAIN / transient — next tick retries
    // Dial the real upstream. Blocking connect is fine: upstreams are
    // live local listeners (the partition fault is simulated at the
    // chunk level, not by refusing dials).
    const int up_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (up_fd < 0) {
      ::close(client_fd);
      return;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(upstreams_[upstream].port);
    if (inet_pton(AF_INET, upstreams_[upstream].host.c_str(),
                  &addr.sin_addr) != 1 ||
        ::connect(up_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0) {
      ::close(up_fd);
      ::close(client_fd);
      continue;
    }
    set_nonblocking(client_fd);
    set_nonblocking(up_fd);
    const int one = 1;
    (void)::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    (void)::setsockopt(up_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto pipe = std::make_unique<Pipe>();
    pipe->client_fd = client_fd;
    pipe->upstream_fd = up_fd;
    pipe->upstream = upstream;
    // Per-connection deterministic stream: the schedule depends only on
    // (seed, accept order), not on wall-clock or fd numbers.
    pipe->rng = util::Xoshiro256(config_.seed ^
                                 util::SplitMix64(next_conn_index_++).next());
    pipes_.push_back(std::move(pipe));
    connections_.add();
  }
}

void NetChaos::inject_reset(Pipe& pipe) {
  // SO_LINGER{on, 0} turns close() into an abortive RST — the client
  // sees ECONNRESET mid-stream, exactly what a crashed middlebox or
  // yanked cable produces.
  if (pipe.client_fd >= 0) {
    linger lin{};
    lin.l_onoff = 1;
    lin.l_linger = 0;
    (void)::setsockopt(pipe.client_fd, SOL_SOCKET, SO_LINGER, &lin,
                       sizeof lin);
    ::close(pipe.client_fd);
    pipe.client_fd = -1;
  }
  if (pipe.upstream_fd >= 0) {
    ::close(pipe.upstream_fd);
    pipe.upstream_fd = -1;
  }
  resets_injected_.add();
  pipe.dead = true;
}

bool NetChaos::pump_read(Pipe& pipe, bool from_client) {
  const int fd = from_client ? pipe.client_fd : pipe.upstream_fd;
  if (fd < 0) return true;
  std::byte buf[64 * 1024];
  for (;;) {
    const auto n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      const auto size = static_cast<std::size_t>(n);
      (from_client ? bytes_in_ : bytes_out_).add(size);
      // Fault pipeline, in severity order. Blackhole first: a
      // partitioned upstream swallows everything, both directions.
      if (blackholed_[pipe.upstream].load(std::memory_order_relaxed)) {
        blackholed_chunks_.add();
        continue;
      }
      if (config_.reset_rate > 0.0 &&
          pipe.rng.bernoulli(config_.reset_rate)) {
        inject_reset(pipe);
        return false;
      }
      if (config_.drop_rate > 0.0 && pipe.rng.bernoulli(config_.drop_rate)) {
        chunks_dropped_.add();
        continue;
      }
      Pipe::Chunk chunk;
      chunk.data.assign(buf, buf + size);
      if (config_.flip_rate > 0.0 && pipe.rng.bernoulli(config_.flip_rate)) {
        const auto bit = pipe.rng.below(size * 8);
        chunk.data[bit / 8] ^= std::byte{1} << (bit % 8);
        bits_flipped_.add();
      }
      auto due = Clock::now();
      if (config_.delay.count() > 0 &&
          pipe.rng.bernoulli(config_.delay_rate)) {
        auto extra = config_.delay;
        if (config_.delay_jitter.count() > 0) {
          extra += std::chrono::milliseconds(static_cast<std::int64_t>(
              pipe.rng.uniform() *
              static_cast<double>(config_.delay_jitter.count())));
        }
        due += extra;
        chunks_delayed_.add();
      }
      chunk.due = due;
      (from_client ? pipe.to_upstream : pipe.to_client)
          .push_back(std::move(chunk));
      continue;
    }
    if (n == 0) {
      if (from_client) return false;  // client hung up: tear down
      // Upstream finished: stop reading it, flush what is queued to the
      // client, then close (pump_write handles the drain).
      pipe.upstream_open = false;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (from_client) return false;
    pipe.upstream_open = false;
    return true;
  }
}

bool NetChaos::pump_write(Pipe& pipe, bool to_client) {
  auto& queue = to_client ? pipe.to_client : pipe.to_upstream;
  auto& off = to_client ? pipe.off_to_client : pipe.off_to_upstream;
  const int fd = to_client ? pipe.client_fd : pipe.upstream_fd;
  if (fd < 0) {
    queue.clear();
    off = 0;
    return true;
  }
  std::size_t budget = config_.throttle_bytes > 0
                           ? config_.throttle_bytes
                           : std::numeric_limits<std::size_t>::max();
  const auto now = Clock::now();
  while (!queue.empty() && budget > 0) {
    auto& chunk = queue.front();
    if (chunk.due > now) break;  // still being "delayed"
    const std::size_t want = std::min(chunk.data.size() - off, budget);
    const auto n =
        ::send(fd, chunk.data.data() + off, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // peer reset underneath us
    }
    off += static_cast<std::size_t>(n);
    budget -= static_cast<std::size_t>(n);
    if (off == chunk.data.size()) {
      queue.pop_front();
      off = 0;
    } else if (budget == 0 && config_.throttle_bytes > 0) {
      // The throttle split this chunk mid-frame — the receiver now
      // holds a torn frame until the next tick tops it up.
      throttled_writes_.add();
    }
  }
  return true;
}

void NetChaos::loop_main() {
  std::vector<pollfd> pfds;
  // Parallel tags: (kind, index). kind 0 = listener i, 1 = pipes_[i]
  // client side, 2 = pipes_[i] upstream side.
  std::vector<std::pair<int, std::size_t>> tags;
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    tags.clear();
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      pfds.push_back({listen_fds_[i], POLLIN, 0});
      tags.emplace_back(0, i);
    }
    for (std::size_t i = 0; i < pipes_.size(); ++i) {
      Pipe& pipe = *pipes_[i];
      if (pipe.client_open && pipe.client_fd >= 0) {
        pfds.push_back({pipe.client_fd, POLLIN, 0});
        tags.emplace_back(1, i);
      }
      if (pipe.upstream_open && pipe.upstream_fd >= 0) {
        pfds.push_back({pipe.upstream_fd, POLLIN, 0});
        tags.emplace_back(2, i);
      }
    }
    const int timeout =
        static_cast<int>(config_.poll_interval.count() > 0
                             ? config_.poll_interval.count()
                             : 1);
    (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout);

    for (std::size_t p = 0; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const auto [kind, idx] = tags[p];
      if (kind == 0) {
        accept_pending(idx);
        continue;
      }
      Pipe& pipe = *pipes_[idx];
      if (pipe.dead) continue;
      if (!pump_read(pipe, kind == 1)) pipe.dead = true;
    }

    // Writes are attempted every tick regardless of poll readiness —
    // that is also what paces throttled and delayed chunks out.
    for (auto& pipe_ptr : pipes_) {
      Pipe& pipe = *pipe_ptr;
      if (pipe.dead) continue;
      if (!pump_write(pipe, true) || !pump_write(pipe, false)) {
        pipe.dead = true;
        continue;
      }
      if (!pipe.upstream_open && pipe.to_client.empty()) {
        pipe.dead = true;  // upstream done and fully drained: polite FIN
      }
    }

    for (std::size_t i = 0; i < pipes_.size();) {
      if (!pipes_[i]->dead) {
        ++i;
        continue;
      }
      if (pipes_[i]->client_fd >= 0) ::close(pipes_[i]->client_fd);
      if (pipes_[i]->upstream_fd >= 0) ::close(pipes_[i]->upstream_fd);
      pipes_[i] = std::move(pipes_.back());
      pipes_.pop_back();
    }
  }
}

}  // namespace robusthd::fleet
