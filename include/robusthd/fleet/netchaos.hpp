#pragma once
// robusthd::fleet::NetChaos — an in-process fault-injecting TCP proxy.
//
// The memory-chaos tooling (fault::Injector, bench/chaos_soak) attacks
// the model's storage; NetChaos attacks the wire between a Client and a
// Frontend. It sits as a transparent TCP proxy — one listener per
// upstream endpoint, clients connect to the proxy's ports instead —
// and perturbs traffic under a deterministic seeded schedule:
//
//   * added latency: every forwarded chunk is held `delay` (+ uniform
//     jitter) before delivery, for a `delay_rate` fraction of chunks —
//     the knob hedged requests are measured against;
//   * connection resets: with `reset_rate` per chunk, the client-side
//     socket is closed with SO_LINGER{1,0} so the peer sees a hard RST
//     mid-stream, not a polite FIN;
//   * silent drops: with `drop_rate` per chunk the bytes vanish — the
//     connection stays open and simply goes quiet (torn frames park in
//     the peer's FrameReader until its read deadline fires);
//   * blackholes: set_blackholed(i) partitions upstream i — every chunk
//     in either direction is swallowed while connections stay
//     established, the classic gray-failure partition;
//   * throttled writes: with `throttle_bytes` > 0 at most that many
//     bytes are forwarded per loop tick per direction, splitting frames
//     at arbitrary byte boundaries (1 = byte-at-a-time slowloris);
//   * payload corruption: with `flip_rate` per chunk one random bit is
//     flipped in flight — the wire CRCs must catch every one
//     (netchaos.bits_flipped vs the peers' protocol_errors).
//
// Determinism: every accepted connection gets its own Xoshiro256 stream
// derived from (seed, connection index), so a run's fault schedule
// replays exactly for a fixed seed regardless of poll timing.
//
// One loop thread serves all pipes. Fault knobs are fixed at
// construction; only the blackhole flags may be toggled while running
// (they are atomic). Not a general-purpose proxy: IPv4 only, meant for
// 127.0.0.1 test fleets.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/fleet/client.hpp"  // Endpoint
#include "robusthd/util/metrics.hpp"

namespace robusthd::fleet {

struct NetChaosConfig {
  std::string host = "127.0.0.1";
  /// Seed for the per-connection fault schedules.
  std::uint64_t seed = 0xc4a05c4a05ULL;
  /// Fixed latency added to each selected chunk (0 = no delay fault).
  std::chrono::milliseconds delay{0};
  /// Uniform extra latency in [0, delay_jitter) on top of `delay`.
  std::chrono::milliseconds delay_jitter{0};
  /// Fraction of chunks the delay applies to (tail shaping: 0.1 delays
  /// only one chunk in ten — an injected p90+ tail).
  double delay_rate = 1.0;
  /// Per-chunk probability of injecting a hard RST to the client.
  double reset_rate = 0.0;
  /// Per-chunk probability the bytes are silently dropped.
  double drop_rate = 0.0;
  /// Per-chunk probability of flipping one random bit in flight.
  double flip_rate = 0.0;
  /// Max bytes forwarded per direction per loop tick; 0 = unthrottled.
  std::size_t throttle_bytes = 0;
  /// Loop poll cadence; also the pacing quantum for throttled writes.
  std::chrono::milliseconds poll_interval{1};
  int backlog = 64;
};

class NetChaos {
 public:
  /// `upstreams[i]` is the real endpoint proxied by listener i (for a
  /// fleet: the Frontend's host + ports()[i]).
  explicit NetChaos(std::vector<Endpoint> upstreams,
                    NetChaosConfig config = {});
  ~NetChaos();

  NetChaos(const NetChaos&) = delete;
  NetChaos& operator=(const NetChaos&) = delete;

  /// Binds one listener per upstream (ephemeral ports — read them back
  /// via ports()) and starts the loop thread. Throws on bind failure.
  void start();

  /// Closes listeners and every pipe, joins the loop. Idempotent.
  void stop();

  /// Proxy-side port per upstream (after start()); point the client's
  /// Endpoint list here.
  std::vector<std::uint16_t> ports() const { return ports_; }

  /// Convenience: the proxied endpoint list a Client can consume.
  std::vector<Endpoint> endpoints() const;

  /// Partition upstream i: swallow all traffic both ways while keeping
  /// connections established. Safe to toggle while running.
  void set_blackholed(std::size_t upstream, bool blackholed);
  bool blackholed(std::size_t upstream) const;

  /// netchaos.* counters: connections, resets_injected, chunks_delayed,
  /// chunks_dropped, bits_flipped, throttled_writes (partial writes the
  /// throttle forced), blackholed_chunks, bytes_in (from clients) and
  /// bytes_out (from upstreams).
  util::MetricsSnapshot metrics() const { return metrics_.snapshot(); }

 private:
  struct Pipe;

  void loop_main();
  void accept_pending(std::size_t upstream);
  /// Reads one side of a pipe; returns false when the pipe must die.
  bool pump_read(Pipe& pipe, bool from_client);
  /// Flushes due chunks; returns false when the pipe must die.
  bool pump_write(Pipe& pipe, bool to_client);
  void inject_reset(Pipe& pipe);

  std::vector<Endpoint> upstreams_;
  NetChaosConfig config_;
  std::vector<std::uint16_t> ports_;
  std::vector<int> listen_fds_;
  std::vector<std::unique_ptr<Pipe>> pipes_;
  std::unique_ptr<std::atomic<bool>[]> blackholed_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::uint64_t next_conn_index_ = 0;

  util::MetricsRegistry metrics_;
  util::Counter& connections_ = metrics_.counter("netchaos.connections");
  util::Counter& resets_injected_ =
      metrics_.counter("netchaos.resets_injected");
  util::Counter& chunks_delayed_ = metrics_.counter("netchaos.chunks_delayed");
  util::Counter& chunks_dropped_ = metrics_.counter("netchaos.chunks_dropped");
  util::Counter& bits_flipped_ = metrics_.counter("netchaos.bits_flipped");
  util::Counter& throttled_writes_ =
      metrics_.counter("netchaos.throttled_writes");
  util::Counter& blackholed_chunks_ =
      metrics_.counter("netchaos.blackholed_chunks");
  util::Counter& bytes_in_ = metrics_.counter("netchaos.bytes_in");
  util::Counter& bytes_out_ = metrics_.counter("netchaos.bytes_out");
};

}  // namespace robusthd::fleet
