#include "robusthd/fleet/frontend.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "robusthd/serve/completion.hpp"

namespace robusthd::fleet {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Whole milliseconds from `now` until `when`, rounded up so the loop
/// never wakes just short of a reaper deadline and spins.
int ms_until(Clock::time_point now, Clock::time_point when) {
  if (when <= now) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(when - now).count();
  return static_cast<int>(std::min<long long>(ms, 1 << 30));
}

}  // namespace

/// Per-connection state. Owned by exactly one loop thread.
struct Connection {
  Connection(int fd_in, std::uint64_t generation_in, std::size_t max_payload)
      : fd(fd_in), generation(generation_in), reader(max_payload) {}

  int fd = -1;
  /// Unique within the loop. A completion carries the generation it was
  /// submitted under; one that finds a different generation behind its
  /// fd belongs to a closed connection whose fd number was reused, and
  /// is dropped rather than framed to the new peer.
  std::uint64_t generation = 0;
  wire::FrameReader reader;
  std::vector<std::byte> out;  ///< unflushed bytes, [out_off, size)
  std::size_t out_off = 0;
  /// Requests submitted whose completion has not been framed yet.
  std::size_t in_flight = 0;

  /// Last time the peer delivered bytes (idle-reaper clock).
  std::chrono::steady_clock::time_point last_activity;
  /// When the currently buffered partial frame started accumulating;
  /// max() = no partial frame (the read-deadline reaper's clock).
  std::chrono::steady_clock::time_point partial_since =
      std::chrono::steady_clock::time_point::max();

  std::size_t unflushed() const noexcept { return out.size() - out_off; }
};

/// A validated predict request from this iteration's read pass, waiting
/// to be answered or queued. Its connection stays in the loop's table
/// until the iteration ends, so the pointer is good until then.
struct Pending {
  Connection* conn = nullptr;  ///< null once dispatched
  std::uint64_t tenant_id = 0;
  std::uint64_t request_id = 0;
  std::chrono::steady_clock::time_point deadline;
  hv::BinVec query;
  std::size_t shard = 0;  ///< set by dispatch's one routing decision
};

/// A request in a shard's queue, remembered until its completion comes
/// back. The tag handed to the server is the entry's slot index.
struct Inflight {
  int fd = -1;
  std::uint64_t generation = 0;
  std::uint64_t tenant_id = 0;
  std::uint64_t request_id = 0;
};

struct Frontend::Loop {
  std::size_t shard = 0;
  int listen_fd = -1;
  /// Workers complete this loop's requests here; its eventfd sits in the
  /// poll set next to the sockets, and stop() rings it to wake the loop.
  std::shared_ptr<serve::CompletionQueue> completions =
      std::make_shared<serve::CompletionQueue>();
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::uint64_t next_generation = 1;
  std::vector<Inflight> inflight;  ///< slot table, indexed by tag
  std::vector<std::uint64_t> free_slots;
  /// Scoring context for the batches this loop answers itself
  /// (serve::Server::answer_now); only its own shard's.
  serve::Server::Lane lane;

  std::uint64_t take_slot(const Inflight& entry) {
    if (free_slots.empty()) {
      inflight.push_back(entry);
      return inflight.size() - 1;
    }
    const std::uint64_t slot = free_slots.back();
    free_slots.pop_back();
    inflight[slot] = entry;
    return slot;
  }
};

Frontend::Frontend(Fleet& fleet, FrontendConfig config)
    : fleet_(fleet), config_(std::move(config)) {}

Frontend::~Frontend() { stop(); }

void Frontend::start() {
  if (started_) return;
  ports_.resize(fleet_.shard_count(), 0);
  loops_.clear();
  for (std::size_t i = 0; i < fleet_.shard_count(); ++i) {
    auto loop = std::make_unique<Loop>();
    loop->shard = i;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("fleet frontend: socket() failed");
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(
        config_.base_port == 0
            ? std::uint16_t{0}
            : static_cast<std::uint16_t>(config_.base_port + i));
    if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("fleet frontend: bad host " + config_.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, config_.backlog) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(std::string("fleet frontend: bind/listen: ") +
                               std::strerror(err));
    }
    socklen_t len = sizeof addr;
    (void)::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports_[i] = ntohs(addr.sin_port);
    set_nonblocking(fd);
    loop->listen_fd = fd;
    loops_.push_back(std::move(loop));
  }

  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    threads_.emplace_back([this, &loop] { loop_main(*loop); });
  }
  started_ = true;
}

void Frontend::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  for (auto& loop : loops_) loop->completions->notify();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  for (auto& loop : loops_) {
    if (loop->listen_fd >= 0) ::close(loop->listen_fd);
    for (auto& [fd, conn] : loop->conns) ::close(fd);
    loop->conns.clear();
  }
  // Requests still queued in a shard keep their loop's completion queue
  // alive and complete into it unread.
  loops_.clear();
  started_ = false;
}

FrontendCounters Frontend::counters() const {
  const auto m = metrics_.snapshot();
  FrontendCounters c;
  c.connections_accepted = m.counter("frontend.connections_accepted");
  c.connections_closed = m.counter("frontend.connections_closed");
  c.protocol_errors = m.counter("frontend.protocol_errors");
  c.frames_in = m.counter("frontend.frames_in");
  c.frames_out = m.counter("frontend.frames_out");
  c.busy_rejections = m.counter("frontend.busy_rejections");
  c.dimension_rejections = m.counter("frontend.dimension_rejections");
  c.bad_requests = m.counter("frontend.bad_requests");
  c.deadline_sheds = m.counter("frontend.deadline_sheds");
  c.reaped_connections = m.counter("frontend.reaped_connections");
  c.stale_completions = m.counter("frontend.stale_completions");
  c.answered_inline = m.counter("frontend.answered_inline");
  return c;
}

void Frontend::loop_main(Loop& loop) {
  std::vector<pollfd> fds;
  std::vector<int> to_close;
  std::vector<serve::Completion> completed;
  std::vector<Pending> pending;
  std::vector<std::size_t> group;  ///< pending indices of the own shard's batch
  std::vector<hv::BinVec> batch;   ///< their queries, in the same order
  /// Frames parsed this iteration; frames_in counts them only once they
  /// have been answered, queued or refused.
  std::uint64_t frames_read = 0;

  const auto close_conn = [&](int fd) { to_close.push_back(fd); };

  const auto send_error = [&](Connection& conn, std::uint64_t tenant_id,
                              std::uint64_t request_id, wire::ErrorCode code,
                              std::string_view message) {
    wire::append_error(conn.out, tenant_id, request_id, code, message);
    frames_out_.add();
  };

  const auto send_answer = [&](Connection& conn, std::uint64_t tenant_id,
                               std::uint64_t request_id,
                               const serve::Response& response) {
    wire::PredictResult result;
    result.predicted = response.predicted;
    result.confidence = response.confidence;
    result.model_version = response.model_version;
    result.trusted = response.trusted;
    result.degraded = response.degraded;
    result.abstained = response.abstained;
    wire::append_predict_response(conn.out, tenant_id, request_id, result);
    frames_out_.add();
  };

  // Parses and validates; a valid predict request joins `pending` for
  // dispatch after the read pass.
  const auto handle_frame = [&](Connection& conn, const wire::Frame& frame) {
    ++frames_read;
    switch (frame.type) {
      case wire::FrameType::kPing:
        wire::append_frame(conn.out, wire::FrameType::kPong, 0,
                           frame.tenant_id, frame.request_id, {});
        frames_out_.add();
        return true;
      case wire::FrameType::kPredictRequest: {
        hv::BinVec query;
        if (!wire::parse_predict_request(frame.payload, query)) {
          bad_requests_.add();
          send_error(conn, frame.tenant_id, frame.request_id,
                     wire::ErrorCode::kBadRequest,
                     "malformed predict payload");
          return true;
        }
        if (query.dimension() != fleet_.dimension()) {
          dimension_rejections_.add();
          send_error(conn, frame.tenant_id, frame.request_id,
                     wire::ErrorCode::kDimensionMismatch,
                     "query dimension != serving dimension");
          return true;
        }
        // The wire deadline is relative (ms of remaining budget at send
        // time) — anchor it to our clock here. Clock skew costs only the
        // one-way network latency, which is already inside the budget.
        auto deadline = std::chrono::steady_clock::time_point::max();
        if (frame.deadline_ms != 0 && config_.admission_control) {
          deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(frame.deadline_ms);
        }
        pending.push_back({&conn, frame.tenant_id, frame.request_id, deadline,
                           std::move(query)});
        return true;
      }
      default:
        // Clients have no business sending responses/errors/pongs.
        protocol_errors_.add();
        return false;
    }
  };

  // Frames one completion into its connection's write buffer — unless
  // that connection is gone, possibly replaced by a new peer on the same
  // fd number, in which case the answer has nobody to go to.
  const auto frame_completion = [&](const serve::Completion& c) {
    const Inflight slot = loop.inflight[c.tag];
    loop.free_slots.push_back(c.tag);
    const auto it = loop.conns.find(slot.fd);
    if (it == loop.conns.end() || it->second->generation != slot.generation) {
      stale_completions_.add();
      return;
    }
    Connection& conn = *it->second;
    --conn.in_flight;
    switch (c.status) {
      case serve::CompletionStatus::kAnswered:
        send_answer(conn, slot.tenant_id, slot.request_id, c.response);
        return;
      case serve::CompletionStatus::kExpired:
        // Shed in-queue by the server: nobody scored it, so there is no
        // prediction to frame — surface the spent budget instead.
        deadline_sheds_.add();
        send_error(conn, slot.tenant_id, slot.request_id,
                   wire::ErrorCode::kDeadlineExceeded,
                   "deadline expired in queue");
        return;
      case serve::CompletionStatus::kDropped:
        send_error(conn, slot.tenant_id, slot.request_id,
                   wire::ErrorCode::kShuttingDown,
                   "request dropped in shutdown");
        return;
    }
  };

  // The budget was spent before we could even enqueue — retrying is
  // futile and the error code says so.
  const auto refuse_expired = [&](const Pending& p) {
    deadline_sheds_.add();
    send_error(*p.conn, p.tenant_id, p.request_id,
               wire::ErrorCode::kDeadlineExceeded,
               "deadline passed before enqueue");
  };

  // The queue path: queue-aware admission into the routed shard, whose
  // workers complete the request into this loop's completion queue.
  const auto enqueue = [&](const Pending& p, hv::BinVec query) {
    Connection& conn = *p.conn;
    const std::uint64_t tag = loop.take_slot(
        {conn.fd, conn.generation, p.tenant_id, p.request_id});
    const SubmitReject reject = fleet_.try_submit_to(
        p.shard, std::move(query), p.deadline, loop.completions, tag);
    if (reject == SubmitReject::kNone) {
      ++conn.in_flight;
      return;
    }
    loop.free_slots.push_back(tag);
    if (reject == SubmitReject::kDeadline) {
      refuse_expired(p);
    } else if (reject == SubmitReject::kPredictedLate) {
      // Early kBusy: the queue cannot serve it within the budget, but
      // another shard (or a later retry) still might.
      deadline_sheds_.add();
      busy_rejections_.add();
      send_error(conn, p.tenant_id, p.request_id, wire::ErrorCode::kBusy,
                 "estimated queue wait exceeds deadline");
    } else {
      busy_rejections_.add();
      send_error(conn, p.tenant_id, p.request_id, wire::ErrorCode::kBusy,
                 "shard queue full");
    }
  };

  // Answers or queues everything the read pass collected. Each request is
  // routed once, so failovers and unrouteable sheds count once whichever
  // path answers it, and one whose budget is already spent is shed. The
  // first max_batch requests routed to this loop's own shard are answered
  // on this thread when the shard is idle and scoring them is expected to
  // take less time than the hand-off to a worker (Server::inline_pays,
  // Server::answer_now). Everything else takes the queue path.
  const auto dispatch = [&] {
    auto& server = fleet_.shard(loop.shard).server();
    group.clear();
    batch.clear();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Pending& p = pending[i];
      p.shard = fleet_.route(p.tenant_id).shard;
      if (fleet_.shed_expired(p.deadline)) {
        refuse_expired(p);
        p.conn = nullptr;
      } else if (p.shard == loop.shard &&
                 group.size() < server.config().max_batch) {
        group.push_back(i);
        batch.push_back(std::move(p.query));
      }
    }
    const bool answered = !group.empty() &&
                          server.inline_pays(group.size()) &&
                          server.answer_now(loop.lane, batch);
    if (answered) {
      answered_inline_.add(group.size());
    }
    // The group goes first: a request queued before it would make
    // answer_now refuse.
    for (std::size_t j = 0; j < group.size(); ++j) {
      Pending& p = pending[group[j]];
      if (answered) {
        send_answer(*p.conn, p.tenant_id, p.request_id,
                    loop.lane.responses()[j]);
      } else {
        enqueue(p, std::move(batch[j]));
      }
      p.conn = nullptr;
    }
    for (auto& p : pending) {
      if (p.conn != nullptr) enqueue(p, std::move(p.query));
    }
    pending.clear();
  };

  const auto flush = [&](int fd, Connection& conn) -> bool {
    while (conn.unflushed() > 0) {
      const auto n = ::send(fd, conn.out.data() + conn.out_off,
                            conn.unflushed(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer gone
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
  };

  std::vector<std::byte> read_buf(64 * 1024);
  constexpr std::size_t kFirstConn = 2;  // fds[0] listener, fds[1] doorbell

  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    const bool room =
        loop.conns.size() < config_.max_connections_per_shard;
    fds.push_back({loop.listen_fd,
                   static_cast<short>(room ? POLLIN : 0), 0});
    fds.push_back({loop.completions->fd(), POLLIN, 0});
    // One poll waits for socket input, completions and stop(); only the
    // reapers need a timeout, and only when a connection could cross
    // read_deadline or idle_timeout before anything else wakes us.
    auto reap_at = Clock::time_point::max();
    for (auto& [fd, conn] : loop.conns) {
      short events = POLLIN;
      if (conn->unflushed() > 0) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      if (config_.read_deadline.count() > 0 &&
          conn->partial_since != Clock::time_point::max()) {
        reap_at =
            std::min(reap_at, conn->partial_since + config_.read_deadline);
      }
      if (config_.idle_timeout.count() > 0 && conn->in_flight == 0 &&
          conn->unflushed() == 0) {
        reap_at =
            std::min(reap_at, conn->last_activity + config_.idle_timeout);
      }
    }
    const int timeout = reap_at == Clock::time_point::max()
                            ? -1
                            : ms_until(Clock::now(), reap_at);
    (void)::poll(fds.data(), fds.size(), timeout);

    // Complete.
    if ((fds[1].revents & POLLIN) != 0) {
      loop.completions->drain(completed);
      for (const auto& c : completed) frame_completion(c);
    }

    // Accept.
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(loop.listen_fd, nullptr, nullptr);
        if (cfd < 0) break;
        if (loop.conns.size() >= config_.max_connections_per_shard) {
          ::close(cfd);
          continue;
        }
        set_nonblocking(cfd);
        const int one = 1;
        (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_unique<Connection>(cfd, loop.next_generation++,
                                                 config_.max_payload);
        conn->last_activity = std::chrono::steady_clock::now();
        loop.conns.emplace(cfd, std::move(conn));
        connections_accepted_.add();
      }
    }

    // Read + parse.
    for (std::size_t i = kFirstConn; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      Connection& conn = *it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        close_conn(fd);
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        bool closed = false;
        bool got_bytes = false;
        for (;;) {
          const auto n = ::recv(fd, read_buf.data(), read_buf.size(), 0);
          if (n > 0) {
            got_bytes = true;
            conn.reader.feed({read_buf.data(), static_cast<std::size_t>(n)});
            if (static_cast<std::size_t>(n) < read_buf.size()) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          closed = true;  // orderly shutdown or hard error
          break;
        }
        if (got_bytes) {
          conn.last_activity = std::chrono::steady_clock::now();
        }
        bool poisoned = false;
        while (auto frame = conn.reader.next()) {
          if (!handle_frame(conn, *frame)) {
            poisoned = true;
            break;
          }
        }
        if (conn.reader.poisoned()) {
          protocol_errors_.add();
          poisoned = true;
        }
        // Read-deadline bookkeeping: a partial frame starts the clock,
        // a drained buffer stops it.
        if (conn.reader.buffered() > 0) {
          if (conn.partial_since ==
              std::chrono::steady_clock::time_point::max()) {
            conn.partial_since = std::chrono::steady_clock::now();
          }
        } else {
          conn.partial_since = std::chrono::steady_clock::time_point::max();
        }
        if (poisoned || closed) {
          close_conn(fd);
          continue;
        }
      }
    }

    // Answer or queue what was read.
    dispatch();
    frames_in_.add(frames_read);
    frames_read = 0;

    // Reap connections stuck mid-frame past the read deadline (slowloris
    // defense) and — when configured — connections idle with nothing in
    // flight. Both are hard closes: a peer that trickles bytes has no
    // claim on a graceful goodbye.
    if (reap_at != Clock::time_point::max()) {
      const auto now = std::chrono::steady_clock::now();
      for (auto& [fd, conn] : loop.conns) {
        const bool stuck_mid_frame =
            config_.read_deadline.count() > 0 &&
            conn->partial_since !=
                std::chrono::steady_clock::time_point::max() &&
            now - conn->partial_since > config_.read_deadline;
        const bool idle =
            config_.idle_timeout.count() > 0 && conn->in_flight == 0 &&
            conn->unflushed() == 0 &&
            now - conn->last_activity > config_.idle_timeout;
        if (stuck_mid_frame || idle) {
          reaped_connections_.add();
          close_conn(fd);
        }
      }
    }

    // Flush.
    for (auto& [fd, conn] : loop.conns) {
      if (!flush(fd, *conn) || conn->unflushed() > config_.max_write_buffer) {
        close_conn(fd);
      }
    }

    for (const int fd : to_close) {
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      ::close(fd);
      loop.conns.erase(it);
      connections_closed_.add();
    }
    to_close.clear();
  }
}

}  // namespace robusthd::fleet
