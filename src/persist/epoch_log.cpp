#include "robusthd/persist/epoch_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "robusthd/model/hdc_model.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/fsio.hpp"

namespace robusthd::persist {

namespace {

std::string six_digits(std::uint64_t v) {
  std::string s = std::to_string(v);
  return s.size() >= 6 ? s : std::string(6 - s.size(), '0') + s;
}

/// "<prefix><digits><suffix>" -> digits, strictly. Anything else (a temp
/// file, a stray name) parses false and is ignored by the scanners.
bool parse_number_between(const std::string& name, const std::string& prefix,
                          const std::string& suffix, std::size_t& pos,
                          std::uint64_t& value) {
  if (name.size() < pos + prefix.size() ||
      name.compare(pos, prefix.size(), prefix) != 0) {
    return false;
  }
  pos += prefix.size();
  std::uint64_t v = 0;
  std::size_t digits = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(name[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0 || digits > 18) return false;
  if (!suffix.empty()) {
    if (name.compare(pos, std::string::npos, suffix) != 0) return false;
    pos = name.size();
  }
  value = v;
  return true;
}

}  // namespace

std::string base_file_name(std::uint64_t generation) {
  return "base-" + six_digits(generation) + ".rhd2";
}

std::string segment_file_name(std::uint64_t generation, std::uint64_t seq) {
  return "wal-" + six_digits(generation) + "-" + six_digits(seq) + ".log";
}

bool parse_base_file_name(const std::string& name, std::uint64_t& generation) {
  std::size_t pos = 0;
  return parse_number_between(name, "base-", ".rhd2", pos, generation);
}

bool parse_segment_file_name(const std::string& name,
                             std::uint64_t& generation, std::uint64_t& seq) {
  std::size_t pos = 0;
  return parse_number_between(name, "wal-", "", pos, generation) &&
         parse_number_between(name, "-", ".log", pos, seq);
}

EpochLog::EpochLog(PersistConfig config, std::vector<std::byte> base_blob,
                   std::uint64_t base_version, util::MetricsRegistry& metrics)
    : config_(std::move(config)), metrics_(metrics) {
  if (config_.epoch_period.count() <= 0) {
    config_.epoch_period = std::chrono::milliseconds(1);
  }
  util::make_dirs(config_.dir);
  // A fresh run always opens a new generation one past anything already
  // on disk: the previous run's files stay replayable until this boot
  // checkpoint is durable, then delete_older_generations() reclaims them.
  std::uint64_t next = 0;
  for (const auto& name : util::list_dir(config_.dir)) {
    std::uint64_t gen = 0, seq = 0;
    if (parse_base_file_name(name, gen) ||
        parse_segment_file_name(name, gen, seq)) {
      next = std::max(next, gen + 1);
    }
  }
  generation_ = next;
  begin_generation(std::move(base_blob), base_version);
  started_ = true;
  thread_ = std::thread(&EpochLog::thread_main, this);
}

EpochLog::~EpochLog() { stop(); }

void EpochLog::append_publication(
    std::uint64_t model_version, std::vector<PlaneWrite> writes,
    std::optional<model::RecoveryEngineState> engine_state) {
  if (failed_.load(std::memory_order_acquire)) return;  // log is dead
  Op op;
  op.kind = Op::Kind::kPublication;
  op.model_version = model_version;
  op.writes = std::move(writes);
  op.engine_state = std::move(engine_state);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back(std::move(op));
  }
  // No wakeup: publications ride the next epoch tick — that batching is
  // the entire point of epochs (one fsync per period, not per repair).
}

void EpochLog::rotate_generation(std::vector<std::byte> base_blob,
                                 std::uint64_t base_version) {
  if (failed_.load(std::memory_order_acquire)) return;
  Op op;
  op.kind = Op::Kind::kRotate;
  op.base_blob = std::move(base_blob);
  op.base_version = base_version;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back(std::move(op));
  }
  cv_.notify_one();
}

void EpochLog::close_epoch() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_) return;
  const std::uint64_t target = ++barriers_requested_;
  cv_.notify_one();
  barrier_cv_.wait(lock, [&] { return barriers_done_ >= target || stop_; });
}

void EpochLog::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  barrier_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
  }
  if (segment_fd_ >= 0) {
    ::close(segment_fd_);
    segment_fd_ = -1;
  }
}

std::uint64_t EpochLog::generation() const noexcept {
  return generation_public_.load(std::memory_order_acquire);
}

void EpochLog::begin_generation(std::vector<std::byte> base_blob,
                                std::uint64_t base_version) {
  // Validate-then-seed: the blob was produced by core::serialize_model a
  // moment ago, but the inspection also hands us the shape and encoder
  // meta the shadow and compaction need.
  base_info_ = core::inspect(base_blob);
  meta_ = core::ModelMeta{base_info_.levels, base_info_.encoder_seed,
                          base_info_.feature_count};
  words_per_plane_ = util::words_for_bits(base_info_.dimension);
  const std::size_t rows = base_info_.num_classes * base_info_.precision_bits;
  const std::size_t header_bytes = base_info_.version == core::kFormatRhd2
                                       ? 64
                                       : 48;
  shadow_.assign(rows * words_per_plane_, 0);
  std::memcpy(shadow_.data(), base_blob.data() + header_bytes,
              shadow_.size() * sizeof(std::uint64_t));

  if (segment_fd_ >= 0) {
    ::close(segment_fd_);
    segment_fd_ = -1;
  }
  // The base must be durable (atomic_write_file fsyncs file + dir)
  // before any segment extends it — recovery picks the highest durable
  // base and only then looks for its WAL.
  util::atomic_write_file(config_.dir + "/" + base_file_name(generation_),
                          base_blob);
  base_version_ = base_version;
  max_applied_version_ = base_version;
  segment_seq_ = 0;
  record_seq_ = 0;
  epoch_ = 0;
  generation_wal_bytes_ = 0;
  dirty_ = false;
  open_segment();
  delete_older_generations();
  generation_public_.store(generation_, std::memory_order_release);
}

void EpochLog::open_segment() {
  const std::string path =
      config_.dir + "/" + segment_file_name(generation_, segment_seq_);
  segment_fd_ = ::open(path.c_str(),
                       O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                       0644);
  if (segment_fd_ < 0) {
    throw util::FsError("robusthd: open(wal segment) failed for " + path);
  }
  segment_bytes_written_ = 0;
  // Segment prologue: every segment names the base it extends, so the
  // replayer can reject a segment that drifted from its generation.
  std::vector<std::byte> frame;
  std::vector<std::byte> payload;
  encode_base_ref(payload, BaseRef{generation_, base_version_});
  encode_record(frame, RecordType::kBaseRef, record_seq_++, payload);
  write_frames(frame);
  util::fsync_fd(segment_fd_);
  util::fsync_dir(config_.dir);
  segments_opened_.add();
}

void EpochLog::write_frames(std::span<const std::byte> frames) {
  util::write_fd(segment_fd_, frames);
  segment_bytes_written_ += frames.size();
  generation_wal_bytes_ += frames.size();
  wal_bytes_.add(frames.size());
}

std::uint32_t EpochLog::shadow_crc() const noexcept {
  return util::crc32c(shadow_.data(),
                      shadow_.size() * sizeof(std::uint64_t));
}

void EpochLog::apply_to_shadow(const PlaneWrite& write) {
  const std::size_t row =
      static_cast<std::size_t>(write.cls) * base_info_.precision_bits +
      write.plane;
  if (write.cls >= base_info_.num_classes ||
      write.plane >= base_info_.precision_bits ||
      write.word_begin > words_per_plane_ ||
      write.words.size() > words_per_plane_ - write.word_begin) {
    return;  // out-of-shape write: never corrupt the shadow
  }
  std::memcpy(shadow_.data() + row * words_per_plane_ + write.word_begin,
              write.words.data(), write.words.size() * sizeof(std::uint64_t));
}

void EpochLog::close_epoch_on_thread() {
  if (!dirty_) return;
  std::vector<std::byte> frame;
  std::vector<std::byte> payload;
  encode_epoch_close(payload, EpochClose{++epoch_, shadow_crc()});
  encode_record(frame, RecordType::kEpochClose, record_seq_++, payload);
  write_frames(frame);
  // THE durability point: everything in this epoch is on stable storage
  // after this returns, and replay commits exactly up to this record.
  util::fsync_fd(segment_fd_);
  dirty_ = false;
  epochs_closed_.add();
  maybe_rotate_segment();
  maybe_compact();
}

void EpochLog::maybe_rotate_segment() {
  if (segment_bytes_written_ < config_.segment_bytes) return;
  ::close(segment_fd_);
  segment_fd_ = -1;
  ++segment_seq_;
  open_segment();
}

void EpochLog::maybe_compact() {
  if (generation_wal_bytes_ < config_.compact_bytes) return;
  // Fold every closed epoch into a fresh checkpoint: the shadow *is* the
  // post-replay model, so compaction is rebuild-serialize-rotate with no
  // WAL reading at all.
  std::vector<model::ClassVector> classes(base_info_.num_classes);
  std::size_t row = 0;
  for (auto& cls : classes) {
    for (unsigned p = 0; p < base_info_.precision_bits; ++p, ++row) {
      hv::BinVec plane(base_info_.dimension);
      std::memcpy(plane.mutable_words().data(),
                  shadow_.data() + row * words_per_plane_,
                  words_per_plane_ * sizeof(std::uint64_t));
      plane.mask_tail();
      cls.planes.push_back(std::move(plane));
    }
  }
  auto model = model::HdcModel::from_planes(std::move(classes),
                                            base_info_.precision_bits);
  auto blob = core::serialize_model(model, meta_);
  const auto carried_state = last_engine_state_;
  ++generation_;
  // Deltas folded so far all carry versions <= max_applied_version_; the
  // new generation fences exactly there, so nothing queued is lost and
  // nothing folded is replayed twice.
  begin_generation(std::move(blob), max_applied_version_);
  compactions_.add();
  rotations_.add();
  // The engine's durable counters lived only in the old generation's WAL
  // (now deleted); re-persist them as the new generation's first epoch.
  if (carried_state) {
    std::vector<std::byte> frame;
    std::vector<std::byte> payload;
    encode_recovery_state(payload, *carried_state);
    encode_record(frame, RecordType::kRecoveryState, record_seq_++, payload);
    write_frames(frame);
    dirty_ = true;
    close_epoch_on_thread();
  }
}

void EpochLog::delete_older_generations() {
  bool removed = false;
  for (const auto& name : util::list_dir(config_.dir)) {
    std::uint64_t gen = 0, seq = 0;
    const bool is_state = parse_base_file_name(name, gen) ||
                          parse_segment_file_name(name, gen, seq);
    if (is_state && gen < generation_) {
      util::remove_file(config_.dir + "/" + name);
      removed = true;
    }
  }
  if (removed) util::fsync_dir(config_.dir);
}

void EpochLog::fail_log() noexcept {
  // Durability is dead; serving is not. Drop the fd, trip the flag, keep
  // draining (and discarding) so appenders and barriers never block.
  if (segment_fd_ >= 0) {
    ::close(segment_fd_);
    segment_fd_ = -1;
  }
  dirty_ = false;
  failed_.store(true, std::memory_order_release);
  io_errors_.add();
}

void EpochLog::thread_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Publications deliberately do NOT wake this wait: they accumulate
    // for up to one epoch_period and commit under a single fsync. Only
    // shutdown and explicit barriers force the epoch early.
    cv_.wait_for(lock, config_.epoch_period,
                 [&] { return stop_ || barriers_requested_ > barriers_done_; });
    // One drained batch == one epoch. Barriers and shutdown force the
    // drain early; plain publications wait out the period (batching).
    std::vector<Op> batch;
    batch.swap(ops_);
    const std::uint64_t barrier_target = barriers_requested_;
    const bool stopping = stop_;
    lock.unlock();

    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        std::vector<std::byte> frames;
        std::vector<std::byte> payload;
        for (auto& op : batch) {
          if (op.kind == Op::Kind::kRotate) {
            // Fence: commit what precedes the rotation, then switch.
            if (!frames.empty()) {
              write_frames(frames);
              frames.clear();
              dirty_ = true;
            }
            close_epoch_on_thread();
            ++generation_;
            begin_generation(std::move(op.base_blob), op.base_version);
            // A rotation is a reload: the scrubber restarts its engine
            // against the new weights, so the old counters must not leak
            // into the next generation.
            last_engine_state_.reset();
            rotations_.add();
            continue;
          }
          if (op.model_version <= base_version_) {
            // The publication raced a rotation and describes pre-rotation
            // weights; folding it into the new base would corrupt it.
            stale_discards_.add(op.writes.size());
            continue;
          }
          for (auto& write : op.writes) {
            apply_to_shadow(write);
            payload.clear();
            encode_plane_delta(
                payload, PlaneDelta{op.model_version, write.cls, write.plane,
                                    write.word_begin, std::move(write.words)});
            encode_record(frames, RecordType::kPlaneDelta, record_seq_++,
                          payload);
            deltas_appended_.add();
          }
          max_applied_version_ =
              std::max(max_applied_version_, op.model_version);
          if (op.engine_state) {
            payload.clear();
            encode_recovery_state(payload, *op.engine_state);
            encode_record(frames, RecordType::kRecoveryState, record_seq_++,
                          payload);
            last_engine_state_ = std::move(op.engine_state);
          }
        }
        if (!frames.empty()) {
          write_frames(frames);
          dirty_ = true;
        }
        close_epoch_on_thread();
      } catch (const std::exception&) {
        fail_log();
      }
    }

    lock.lock();
    if (barriers_done_ < barrier_target) {
      barriers_done_ = barrier_target;
      barrier_cv_.notify_all();
    }
    if (stopping && ops_.empty()) {
      barrier_cv_.notify_all();
      return;
    }
  }
}

}  // namespace robusthd::persist
