#pragma once
// EpochLog — the epoch-based write-ahead durability layer of
// robusthd::persist (the ROADMAP's "crash-consistent epoch persistence"
// item, shaped after Montage's EpochSys: mutations batch into epochs,
// and persistence is only ever claimed at epoch boundaries).
//
// On-disk layout of a persist directory:
//
//   base-<gen>.rhd2          atomic RHD2 checkpoint opening generation g
//   wal-<gen>-<seq>.log      append-only WAL segments extending that base
//
// A *generation* is one base checkpoint plus the segments that extend
// it. The log thread drains appended publications every epoch_period,
// writes them as CRC32C-framed records (wal.hpp), and commits the batch
// with an EpochClose record followed by one fsync — that close is the
// durability point; everything after the last close is discarded on
// replay. Segments rotate at segment_bytes; when a generation's WAL
// grows past compact_bytes the log folds its shadow model into a fresh
// base checkpoint and starts generation g+1 (replay time stays bounded).
// A hot reload rotates generations the same way, with the reloaded blob
// as the new base — queued deltas that targeted the pre-reload weights
// carry a model version <= the new base's and are discarded, never
// merged into the wrong model.
//
// The log maintains a *shadow* copy of every plane's words, advanced by
// exactly the deltas it writes; each EpochClose carries a CRC32C over
// the full shadow. Replay recomputes that CRC over the rebuilt model,
// which makes "recovery is bit-identical to the last closed epoch" a
// verified property end to end (the crash harness's central assertion).
//
// Threading: append_publication()/rotate_generation() are safe from any
// thread (in practice the scrub thread and reload callers); everything
// that touches the filesystem or the shadow runs on the single log
// thread. Filesystem failures on that thread cannot propagate to the
// appenders — the log trips a permanent failed flag (counted in
// persist.io_errors), stops writing, and the server keeps serving
// undurably, mirroring the degradation ladder's "shed the feature, not
// the service" stance.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/core/serialize.hpp"
#include "robusthd/model/recovery.hpp"
#include "robusthd/persist/wal.hpp"
#include "robusthd/util/metrics.hpp"

namespace robusthd::persist {

/// Durability knobs (ServerConfig::persist). An empty dir disables the
/// whole layer — the server then runs exactly as before this subsystem.
struct PersistConfig {
  std::string dir;  ///< persist directory; empty == persistence off
  /// Epoch cadence: how often the log thread drains, writes and fsyncs.
  /// Work lost in a crash is bounded by one period.
  std::chrono::milliseconds epoch_period{25};
  std::size_t segment_bytes = 4u << 20;   ///< WAL segment rotation cap
  /// Generation WAL ceiling: past this, closed epochs are folded into a
  /// fresh base checkpoint (compaction) and the old generation deleted.
  std::size_t compact_bytes = 64u << 20;
};

/// One rewritten word range, captured at publication time. `words` holds
/// the *content* (not a diff), so replaying any suffix-complete set of
/// closed epochs converges to the writer's shadow.
struct PlaneWrite {
  std::uint32_t cls = 0;
  std::uint32_t plane = 0;
  std::uint64_t word_begin = 0;
  std::vector<std::uint64_t> words;
};

/// File-name scheme shared with the replayer.
std::string base_file_name(std::uint64_t generation);
std::string segment_file_name(std::uint64_t generation, std::uint64_t seq);
bool parse_base_file_name(const std::string& name, std::uint64_t& generation);
bool parse_segment_file_name(const std::string& name,
                             std::uint64_t& generation, std::uint64_t& seq);

class EpochLog {
 public:
  /// Opens (creating if needed) the persist directory, writes `base_blob`
  /// as the base checkpoint of a fresh generation (one past the highest
  /// already on disk), seeds the shadow from it, opens segment 0 and
  /// starts the log thread. `base_version` is the snapshot version the
  /// base corresponds to: only deltas with a strictly greater version
  /// are accepted into this generation. Throws core::SerializeError /
  /// util::FsError when the directory or blob is unusable. Records into
  /// `metrics` (persist.* counters), which must outlive the log.
  EpochLog(PersistConfig config, std::vector<std::byte> base_blob,
           std::uint64_t base_version, util::MetricsRegistry& metrics);
  ~EpochLog();

  EpochLog(const EpochLog&) = delete;
  EpochLog& operator=(const EpochLog&) = delete;

  /// Queues one snapshot publication: the rewritten ranges plus (when the
  /// publisher runs a recovery engine) its durable state. The whole
  /// publication is enqueued atomically, so a generation fence can never
  /// split it. Cheap for the caller — all I/O happens on the log thread.
  void append_publication(
      std::uint64_t model_version, std::vector<PlaneWrite> writes,
      std::optional<model::RecoveryEngineState> engine_state);

  /// Queues a generation rotation around `base_blob` (a hot reload): the
  /// current epoch is closed, the blob becomes base-<gen+1>.rhd2, and
  /// queued publications with model_version <= base_version are dropped.
  void rotate_generation(std::vector<std::byte> base_blob,
                         std::uint64_t base_version);

  /// Synchronous barrier: returns once everything appended before the
  /// call is on stable storage under a closed epoch (or the log has
  /// tripped its failed flag). Test/shutdown determinism.
  void close_epoch();

  /// Final drain + close, then joins the log thread. Idempotent; the
  /// destructor calls it.
  void stop();

  std::uint64_t generation() const noexcept;

 private:
  struct Op {
    enum class Kind { kPublication, kRotate } kind = Kind::kPublication;
    std::uint64_t model_version = 0;  // publication
    std::vector<PlaneWrite> writes;
    std::optional<model::RecoveryEngineState> engine_state;
    std::vector<std::byte> base_blob;  // rotation
    std::uint64_t base_version = 0;
  };

  void thread_main();
  /// Writes a new base checkpoint + segment 0 of the next generation and
  /// re-seeds the shadow. Runs on the constructing thread once, then
  /// only on the log thread.
  void begin_generation(std::vector<std::byte> base_blob,
                        std::uint64_t base_version);
  void open_segment();
  void write_frames(std::span<const std::byte> frames);
  void close_epoch_on_thread();
  void maybe_rotate_segment();
  void maybe_compact();
  void apply_to_shadow(const PlaneWrite& write);
  std::uint32_t shadow_crc() const noexcept;
  void delete_older_generations();
  void fail_log() noexcept;

  PersistConfig config_;
  util::MetricsRegistry& metrics_;

  // Log-thread state (constructor-then-log-thread only).
  std::uint64_t generation_ = 0;
  std::uint64_t base_version_ = 0;
  std::uint64_t max_applied_version_ = 0;
  std::uint64_t segment_seq_ = 0;
  std::uint64_t record_seq_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t segment_bytes_written_ = 0;
  std::size_t generation_wal_bytes_ = 0;
  int segment_fd_ = -1;
  bool dirty_ = false;  ///< records written since the last close
  core::BlobInfo base_info_{};
  core::ModelMeta meta_{};
  std::size_t words_per_plane_ = 0;
  std::vector<std::uint64_t> shadow_;  ///< rows * wpp, class-major
  std::optional<model::RecoveryEngineState> last_engine_state_;

  std::atomic<std::uint64_t> generation_public_{0};

  mutable std::mutex mutex_;  ///< guards ops_ and the barrier counters
  std::condition_variable cv_;        ///< log thread waits here
  std::condition_variable barrier_cv_;///< close_epoch() waiters
  std::vector<Op> ops_;
  std::uint64_t barriers_requested_ = 0;
  std::uint64_t barriers_done_ = 0;
  bool stop_ = false;
  std::atomic<bool> failed_{false};

  util::Counter& epochs_closed_ = metrics_.counter("persist.epochs_closed");
  /// Record bytes written, all generations.
  util::Counter& wal_bytes_ = metrics_.counter("persist.wal_bytes");
  util::Counter& deltas_appended_ = metrics_.counter("persist.deltas_appended");
  /// Deltas dropped at a rotation fence.
  util::Counter& stale_discards_ = metrics_.counter("persist.stale_discards");
  /// Generation starts (reload/compact).
  util::Counter& rotations_ = metrics_.counter("persist.rotations");
  util::Counter& compactions_ = metrics_.counter("persist.compactions");
  util::Counter& segments_opened_ = metrics_.counter("persist.segments_opened");
  /// Nonzero => the log is dead; serving is not.
  util::Counter& io_errors_ = metrics_.counter("persist.io_errors");

  std::thread thread_;
  bool started_ = false;
};

}  // namespace robusthd::persist
