#include "robusthd/persist/recover.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "robusthd/persist/epoch_log.hpp"
#include "robusthd/persist/wal.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/fsio.hpp"

namespace robusthd::persist {

namespace {

/// Allocation bounds for reading our own files back. Both are far above
/// anything the writer produces (bases are bounded by the serialization
/// layer's shape limits, segments by PersistConfig::segment_bytes plus
/// one record) but still finite — a directory entry swapped for a huge
/// file fails the read, it does not drive a huge allocation.
constexpr std::size_t kMaxBaseBytes = std::size_t{1} << 30;
constexpr std::size_t kMaxSegmentBytes = std::size_t{1} << 28;

/// CRC32C over every plane's words in class-major, plane-minor order —
/// the same byte sequence the writer's shadow_crc() covers.
std::uint32_t model_state_crc(const model::HdcModel& model) noexcept {
  std::uint32_t crc = 0;
  for (std::size_t c = 0; c < model.num_classes(); ++c) {
    for (std::size_t p = 0; p < model.precision_bits(); ++p) {
      const auto words = model.plane_words(c, p);
      crc = util::crc32c(words.data(), words.size() * sizeof(std::uint64_t),
                         crc);
    }
  }
  return crc;
}

struct Replayer {
  Replayer(model::HdcModel& m, std::size_t wpp, ReplayStats& s)
      : model(m), words_per_plane(wpp), stats(s) {}

  model::HdcModel& model;
  std::size_t words_per_plane;
  ReplayStats& stats;
  std::uint64_t base_version = 0;
  std::uint64_t max_version = 0;

  // Records buffered since the last EpochClose — an open epoch. Nothing
  // in here touches the model until a close commits it. The engine states
  // carry flags, not std::optional: GCC 12 reports a false
  // -Wmaybe-uninitialized when an optional of this struct is destroyed.
  std::vector<PlaneDelta> pending_deltas;
  model::RecoveryEngineState pending_state;
  bool has_pending_state = false;
  std::size_t pending_records = 0;

  model::RecoveryEngineState committed_state;
  bool has_committed_state = false;
  std::optional<EpochClose> last_close;

  void apply_delta(const PlaneDelta& delta) {
    if (delta.model_version <= base_version) {
      // Raced a generation rotation on the write side; describes weights
      // that predate this base.
      ++stats.discarded_records;
      return;
    }
    const auto cls = static_cast<std::size_t>(delta.cls);
    const auto plane = static_cast<std::size_t>(delta.plane);
    if (cls >= model.num_classes() ||
        plane >= model.class_vector(cls).planes.size() ||
        delta.word_begin > words_per_plane ||
        delta.words.size() > words_per_plane - delta.word_begin) {
      ++stats.discarded_records;  // CRC-valid but out of shape: drop, go on
      return;
    }
    auto words = model.class_vector(cls).planes[plane].mutable_words();
    std::copy(delta.words.begin(), delta.words.end(),
              words.begin() + static_cast<std::ptrdiff_t>(delta.word_begin));
    max_version = std::max(max_version, delta.model_version);
    ++stats.replay_records;
  }

  void commit(const EpochClose& close) {
    for (const auto& delta : pending_deltas) apply_delta(delta);
    pending_deltas.clear();
    if (has_pending_state) {
      committed_state = std::move(pending_state);
      has_committed_state = true;
      has_pending_state = false;
      ++stats.replay_records;
    }
    pending_records = 0;
    last_close = close;
    ++stats.epochs_applied;
    ++stats.replay_records;  // the close itself
  }

  void discard_open_epoch() {
    stats.discarded_records += pending_records;
    pending_deltas.clear();
    has_pending_state = false;
    pending_records = 0;
  }
};

}  // namespace

bool has_state(const std::string& dir) {
  for (const auto& name : util::list_dir(dir)) {
    std::uint64_t gen = 0;
    if (parse_base_file_name(name, gen)) return true;
  }
  return false;
}

std::optional<Recovered> recover_dir(const std::string& dir) {
  std::vector<std::uint64_t> bases;
  std::map<std::uint64_t, std::vector<std::uint64_t>> segments;
  for (const auto& name : util::list_dir(dir)) {
    std::uint64_t gen = 0, seq = 0;
    if (parse_base_file_name(name, gen)) {
      bases.push_back(gen);
    } else if (parse_segment_file_name(name, gen, seq)) {
      segments[gen].push_back(seq);
    }
  }
  std::sort(bases.rbegin(), bases.rend());

  for (const auto gen : bases) {
    Recovered rec;
    try {
      const auto blob =
          util::read_file(dir + "/" + base_file_name(gen), kMaxBaseBytes);
      rec.base_info = core::inspect(blob);
      rec.model = core::deserialize_model(blob);
    } catch (const std::runtime_error&) {
      continue;  // unusable base: fall back to the previous generation
    }
    rec.generation = gen;

    Replayer replayer{rec.model,
                      util::words_for_bits(rec.base_info.dimension),
                      rec.stats};
    auto seqs = segments[gen];
    std::sort(seqs.begin(), seqs.end());
    std::uint64_t expected_seq = 0;
    bool stopped = false;
    for (const auto seq : seqs) {
      if (stopped || seq != expected_seq++) break;  // gap: orphaned tail
      std::vector<std::byte> bytes;
      try {
        bytes = util::read_file(dir + "/" + segment_file_name(gen, seq),
                                kMaxSegmentBytes);
      } catch (const std::runtime_error&) {
        break;  // unreadable segment ends replay at the last commit
      }
      ++rec.stats.segments;
      rec.stats.wal_bytes += bytes.size();

      SegmentReader reader(bytes);
      RecordView record;
      bool prologue_seen = false;
      while (reader.next(record)) {
        if (!prologue_seen) {
          // Every segment must open by naming the base it extends.
          const auto ref = decode_base_ref(record.payload);
          if (record.type != RecordType::kBaseRef || !ref ||
              ref->generation != gen) {
            stopped = true;
            break;
          }
          replayer.base_version = ref->base_version;
          replayer.max_version =
              std::max(replayer.max_version, ref->base_version);
          prologue_seen = true;
          ++rec.stats.replay_records;
          continue;
        }
        switch (record.type) {
          case RecordType::kPlaneDelta: {
            auto delta = decode_plane_delta(record.payload);
            if (!delta) {
              stopped = true;  // framed correctly but unparseable: stop
              break;
            }
            replayer.pending_deltas.push_back(std::move(*delta));
            ++replayer.pending_records;
            break;
          }
          case RecordType::kRecoveryState: {
            auto state = decode_recovery_state(record.payload);
            if (!state) {
              stopped = true;
              break;
            }
            replayer.pending_state = std::move(*state);
            replayer.has_pending_state = true;
            ++replayer.pending_records;
            break;
          }
          case RecordType::kEpochClose: {
            const auto close = decode_epoch_close(record.payload);
            if (!close) {
              stopped = true;
              break;
            }
            replayer.commit(*close);
            break;
          }
          default:
            // Unknown record type with a valid CRC: a future writer.
            // Conservative stop — we cannot know whether skipping it is
            // sound.
            stopped = true;
            break;
        }
        if (stopped) break;
      }
      if (reader.torn()) {
        rec.stats.torn_tail = true;
        stopped = true;
      }
    }
    // Whatever is still buffered belongs to an epoch that never closed
    // (the kill-9 window) — discarded by design.
    replayer.discard_open_epoch();

    if (replayer.last_close) {
      rec.stats.state_crc_ok =
          model_state_crc(rec.model) == replayer.last_close->state_crc;
    }
    rec.model_version = replayer.max_version;
    if (replayer.has_committed_state) {
      rec.engine_state = std::move(replayer.committed_state);
    }
    return rec;
  }
  return std::nullopt;
}

}  // namespace robusthd::persist
