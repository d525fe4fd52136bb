// Exhaustive adversarial input sweep for the WAL framing layer, in the
// style of fleet_wire_test: every truncation length and every single-bit
// flip of a multi-record segment goes through SegmentReader, which must
// never throw, never read out of bounds (the ASan job runs this), and
// never hand out a record whose payload differs from what was written.
// A sample of on-disk flips then goes through the full recover_dir stack.
#include "robusthd/persist/wal.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "robusthd/core/serialize.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/persist/epoch_log.hpp"
#include "robusthd/persist/recover.hpp"
#include "robusthd/util/fsio.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::persist {
namespace {

struct Original {
  RecordType type;
  std::vector<std::byte> payload;
};

/// A representative segment: prologue, deltas of several sizes, engine
/// state, an epoch close, and a second epoch — every record type, plus
/// payloads that are not multiples of the 8-byte pad.
std::vector<std::byte> build_segment(std::vector<Original>& originals) {
  std::vector<std::byte> segment;
  std::vector<std::byte> payload;
  std::uint64_t seq = 0;

  const auto add = [&](RecordType type) {
    originals.push_back({type, payload});
    encode_record(segment, type, seq++, payload);
    payload.clear();
  };

  encode_base_ref(payload, BaseRef{3, 17});
  add(RecordType::kBaseRef);

  encode_plane_delta(payload, PlaneDelta{18, 0, 0, 0, {0xAAAAAAAAAAAAAAAAull}});
  add(RecordType::kPlaneDelta);

  encode_plane_delta(
      payload, PlaneDelta{19, 2, 1, 7, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}});
  add(RecordType::kPlaneDelta);

  model::RecoveryEngineState state;
  state.total_updates = 5;
  state.total_substituted_bits = 640;
  state.best_health = 0.875;
  state.frozen = false;
  state.class_repairs = {2, 0, 3};
  encode_recovery_state(payload, state);
  add(RecordType::kRecoveryState);

  encode_epoch_close(payload, EpochClose{0, 0x12345678u});
  add(RecordType::kEpochClose);

  encode_plane_delta(payload, PlaneDelta{20, 1, 0, 3, {~0ull, 0ull}});
  add(RecordType::kPlaneDelta);

  encode_epoch_close(payload, EpochClose{1, 0x9ABCDEF0u});
  add(RecordType::kEpochClose);

  return segment;
}

bool payload_equal(std::span<const std::byte> a,
                   std::span<const std::byte> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Scans `bytes` and checks the integrity contract: each yielded record
/// is byte-identical to the original at its position — the reader may
/// stop early (torn or clean), but it must never emit a damaged or
/// reordered record.
void check_scan(std::span<const std::byte> bytes,
                const std::vector<Original>& originals) {
  SegmentReader reader(bytes);
  RecordView record;
  std::size_t index = 0;
  while (reader.next(record)) {
    ASSERT_LT(index, originals.size());
    EXPECT_EQ(record.type, originals[index].type);
    EXPECT_TRUE(payload_equal(record.payload, originals[index].payload));
    ++index;
  }
  EXPECT_LE(reader.offset(), bytes.size());
  // A second next() after the scan ended must stay false (sticky stop).
  EXPECT_FALSE(reader.next(record));
}

TEST(WalFuzz, EveryTruncationLengthScansCleanly) {
  std::vector<Original> originals;
  const auto segment = build_segment(originals);
  ASSERT_GT(segment.size(), kRecordHeaderBytes * originals.size());

  for (std::size_t cut = 0; cut <= segment.size(); ++cut) {
    check_scan(std::span<const std::byte>(segment.data(), cut), originals);
  }
}

TEST(WalFuzz, EverySingleBitFlipScansCleanly) {
  std::vector<Original> originals;
  const auto segment = build_segment(originals);

  std::vector<std::byte> mutated = segment;
  for (std::size_t bit = 0; bit < segment.size() * 8; ++bit) {
    mutated[bit / 8] ^= std::byte{1} << (bit % 8);
    check_scan(mutated, originals);
    mutated[bit / 8] = segment[bit / 8];  // restore
  }
}

TEST(WalFuzz, FlipsOnTopOfTruncationsScanCleanly) {
  std::vector<Original> originals;
  const auto segment = build_segment(originals);
  util::Xoshiro256 rng(71);
  // A randomized double-fault sample: truncate AND flip, which exercises
  // the header-spans-the-end and length-field-points-past-the-end paths.
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t cut = rng.below(segment.size() + 1);
    std::vector<std::byte> mutated(segment.begin(),
                                   segment.begin() + static_cast<std::ptrdiff_t>(cut));
    if (!mutated.empty()) {
      const std::size_t bit = rng.below(mutated.size() * 8);
      mutated[bit / 8] ^= std::byte{1} << (bit % 8);
    }
    check_scan(mutated, originals);
  }
}

// On-disk sample through the full replay stack: a real persist directory
// with one closed epoch, then random single-bit flips in the WAL segment.
// recover_dir must never throw or crash — a flip costs at most records
// (torn tail / CRC mismatch), never safety.
TEST(WalFuzz, OnDiskFlipsNeverBreakRecoverDir) {
  char tmpl[] = "/tmp/robusthd_walfuzz_XXXXXX";
  const char* dir_c = ::mkdtemp(tmpl);
  ASSERT_NE(dir_c, nullptr);
  const std::string dir = dir_c;

  util::Xoshiro256 rng(73);
  std::vector<hv::BinVec> train;
  std::vector<int> labels;
  for (std::size_t c = 0; c < 3; ++c) {
    auto proto = hv::BinVec::random(512, rng);
    for (int i = 0; i < 6; ++i) {
      auto v = proto;
      for (std::size_t d = 0; d < 512; ++d) {
        if (rng.bernoulli(0.04)) v.flip(d);
      }
      train.push_back(std::move(v));
      labels.push_back(static_cast<int>(c));
    }
  }
  auto model = model::HdcModel::train(train, labels, 3, {});

  PersistConfig config;
  config.dir = dir;
  {
    util::MetricsRegistry metrics;
    EpochLog log(config, core::serialize_model(model, {}), 0, metrics);
    for (std::uint64_t version = 1; version <= 5; ++version) {
      PlaneWrite write;
      write.cls = static_cast<std::uint32_t>(version % 3);
      write.plane = 0;
      write.word_begin = version;
      write.words = {rng.next(), rng.next()};
      log.append_publication(version, {std::move(write)}, std::nullopt);
    }
    log.close_epoch();
  }

  const auto segment_path = dir + "/" + segment_file_name(0, 0);
  const auto pristine = util::read_file(segment_path, 1u << 20);
  ASSERT_FALSE(pristine.empty());

  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = pristine;
    const std::size_t bit = rng.below(mutated.size() * 8);
    mutated[bit / 8] ^= std::byte{1} << (bit % 8);
    util::atomic_write_file(segment_path, mutated);

    std::optional<Recovered> rec;
    ASSERT_NO_THROW(rec = recover_dir(dir));
    // The base checkpoint is untouched, so recovery always has a model —
    // possibly with fewer (or zero) epochs applied, flagged by the stats.
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->model.dimension(), model.dimension());
    EXPECT_EQ(rec->model.num_classes(), model.num_classes());
  }

  util::atomic_write_file(segment_path, pristine);
  const auto rec = recover_dir(dir);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->stats.state_crc_ok);

  for (const auto& name : util::list_dir(dir)) {
    util::remove_file(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace robusthd::persist
