// Tests for robusthd::persist: crash-atomic save_model, typed load_model
// failures, WAL record framing, the EpochLog writer, recover_dir replay,
// and the Server persistence integration (including reloads racing
// recovery). The fork+SIGKILL cases are skipped under TSan (fork after
// threads start is undefined there); bench/crash_recovery is the heavier
// kill-9 campaign against a live server.
#include "robusthd/persist/epoch_log.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "robusthd/core/serialize.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/model/recovery.hpp"
#include "robusthd/persist/recover.hpp"
#include "robusthd/persist/wal.hpp"
#include "robusthd/serve/server.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/fsio.hpp"
#include "robusthd/util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define ROBUSTHD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ROBUSTHD_TSAN 1
#endif
#endif

namespace robusthd::persist {
namespace {

constexpr std::size_t kDim = 1024;
constexpr std::size_t kClasses = 4;

std::string temp_dir() {
  char tmpl[] = "/tmp/robusthd_persist_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void remove_tree(const std::string& dir) {
  for (const auto& name : util::list_dir(dir)) {
    util::remove_file(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

model::HdcModel small_model(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> train;
  std::vector<int> labels;
  for (std::size_t c = 0; c < kClasses; ++c) {
    auto proto = hv::BinVec::random(kDim, rng);
    for (int i = 0; i < 8; ++i) {
      auto v = proto;
      for (std::size_t d = 0; d < kDim; ++d) {
        if (rng.bernoulli(0.04)) v.flip(d);
      }
      train.push_back(std::move(v));
      labels.push_back(static_cast<int>(c));
    }
  }
  return model::HdcModel::train(train, labels, kClasses, {});
}

bool models_bit_identical(const model::HdcModel& a, const model::HdcModel& b) {
  if (a.num_classes() != b.num_classes() || a.dimension() != b.dimension() ||
      a.precision_bits() != b.precision_bits()) {
    return false;
  }
  for (std::size_t c = 0; c < a.num_classes(); ++c) {
    const auto& pa = a.class_vector(c).planes;
    const auto& pb = b.class_vector(c).planes;
    if (pa.size() != pb.size()) return false;
    for (std::size_t p = 0; p < pa.size(); ++p) {
      const auto wa = pa[p].words();
      const auto wb = pb[p].words();
      if (!std::equal(wa.begin(), wa.end(), wb.begin(), wb.end())) {
        return false;
      }
    }
  }
  return true;
}

// ------------------------------------------------- atomic save_model --

#ifndef ROBUSTHD_TSAN
// Kill a child mid-save at every microsecond offset we can hit: the
// destination must always hold the complete old blob or the complete new
// one — a torn RHD2 file at `path` is the bug this PR fixes.
TEST(AtomicSave, Kill9MidSaveNeverTearsTheDestination) {
  const auto dir = temp_dir();
  const auto path = dir + "/model.rhd2";
  const auto old_model = small_model(1);
  const auto new_model = small_model(2);
  core::save_model(old_model, path);

  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: save over the existing file in a tight loop until killed.
      for (;;) core::save_model(new_model, path);
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(50 + rng.next() % 3000));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);

    // Whatever instant the kill landed on, the destination validates and
    // equals one of the two complete models.
    model::HdcModel loaded;
    ASSERT_NO_THROW(loaded = core::load_model_planes(path));
    EXPECT_TRUE(models_bit_identical(loaded, old_model) ||
                models_bit_identical(loaded, new_model));
  }
  remove_tree(dir);
}
#endif  // !ROBUSTHD_TSAN

TEST(AtomicSave, LeftoverTempFilesAreNeverTruncatedInto) {
  const auto dir = temp_dir();
  const auto path = dir + "/model.rhd2";
  const auto m = small_model(3);
  core::save_model(m, path);
  core::save_model(m, path);  // O_EXCL picks a fresh temp name every time
  EXPECT_TRUE(models_bit_identical(core::load_model_planes(path), m));
  remove_tree(dir);
}

// --------------------------------------------- typed load_model errors --

TEST(LoadModel, EmptyFileThrowsTypedEmptyError) {
  const auto dir = temp_dir();
  const auto path = dir + "/empty.rhd2";
  util::atomic_write_file(path, {});
  try {
    core::load_model_planes(path);
    FAIL() << "empty file must not load";
  } catch (const core::SerializeError& e) {
    EXPECT_EQ(e.code, core::SerializeError::Code::kEmpty);
  }
  remove_tree(dir);
}

TEST(LoadModel, TruncatedFileThrowsBeforePayloadAllocation) {
  const auto dir = temp_dir();
  const auto path = dir + "/trunc.rhd2";
  const auto blob = core::serialize_model(small_model(4), {});
  // Valid header, half the payload: the loader must reject on the size
  // check derived from the validated header, not on a short read of a
  // payload-sized buffer.
  util::atomic_write_file(
      path, std::span<const std::byte>(blob.data(), blob.size() / 2));
  try {
    core::load_model_planes(path);
    FAIL() << "truncated file must not load";
  } catch (const core::SerializeError& e) {
    EXPECT_TRUE(e.code == core::SerializeError::Code::kTruncated ||
                e.code == core::SerializeError::Code::kIntegrity);
  }
  remove_tree(dir);
}

TEST(LoadModel, HostileHeaderIsBoundedBeforeAllocation) {
  const auto dir = temp_dir();
  const auto path = dir + "/hostile.rhd2";
  auto blob = core::serialize_model(small_model(5), {});
  // Lie about the dimension: 2^40 bits/plane would be a 128 GiB reserve
  // if the loader trusted tellg()/header sizes before validating them.
  // The header CRC is re-fixed so the *bounds* check is what rejects it.
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(blob.data() + 8, &huge, sizeof(huge));
  const std::uint32_t fixed_crc = util::crc32c(blob.data(), 60);
  std::memcpy(blob.data() + 60, &fixed_crc, sizeof(fixed_crc));
  util::atomic_write_file(path, blob);
  try {
    core::load_model_planes(path);
    FAIL() << "hostile header must not load";
  } catch (const core::SerializeError& e) {
    EXPECT_EQ(e.code, core::SerializeError::Code::kMalformed);
  }
  remove_tree(dir);
}

// ----------------------------------------------------- record framing --

TEST(WalFraming, RecordsRoundTripThroughSegmentReader) {
  std::vector<std::byte> segment;
  std::vector<std::byte> payload;

  encode_base_ref(payload, BaseRef{7, 42});
  encode_record(segment, RecordType::kBaseRef, 0, payload);

  payload.clear();
  PlaneDelta delta{43, 2, 0, 5, {0xDEADBEEFull, 0x1234ull, ~0ull}};
  encode_plane_delta(payload, delta);
  encode_record(segment, RecordType::kPlaneDelta, 1, payload);

  payload.clear();
  model::RecoveryEngineState state;
  state.total_updates = 11;
  state.total_substituted_bits = 222;
  state.best_health = 0.75;
  state.frozen = true;
  state.class_repairs = {1, 0, 3, 0};
  encode_recovery_state(payload, state);
  encode_record(segment, RecordType::kRecoveryState, 2, payload);

  payload.clear();
  encode_epoch_close(payload, EpochClose{9, 0xABCDEF01u});
  encode_record(segment, RecordType::kEpochClose, 3, payload);

  SegmentReader reader(segment);
  RecordView record;

  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.type, RecordType::kBaseRef);
  const auto ref = decode_base_ref(record.payload);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->generation, 7u);
  EXPECT_EQ(ref->base_version, 42u);

  ASSERT_TRUE(reader.next(record));
  const auto d = decode_plane_delta(record.payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->model_version, 43u);
  EXPECT_EQ(d->cls, 2u);
  EXPECT_EQ(d->word_begin, 5u);
  EXPECT_EQ(d->words, delta.words);

  ASSERT_TRUE(reader.next(record));
  const auto s = decode_recovery_state(record.payload);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->total_updates, 11u);
  EXPECT_EQ(s->total_substituted_bits, 222u);
  EXPECT_DOUBLE_EQ(s->best_health, 0.75);
  EXPECT_TRUE(s->frozen);
  EXPECT_EQ(s->class_repairs, state.class_repairs);

  ASSERT_TRUE(reader.next(record));
  const auto close = decode_epoch_close(record.payload);
  ASSERT_TRUE(close.has_value());
  EXPECT_EQ(close->epoch, 9u);
  EXPECT_EQ(close->state_crc, 0xABCDEF01u);

  EXPECT_FALSE(reader.next(record));
  EXPECT_FALSE(reader.torn());  // clean end, not a tear
  EXPECT_EQ(reader.offset(), segment.size());
}

TEST(WalFraming, TornTailStopsCleanlyAtTheLastGoodRecord) {
  std::vector<std::byte> segment;
  std::vector<std::byte> payload;
  encode_base_ref(payload, BaseRef{0, 0});
  encode_record(segment, RecordType::kBaseRef, 0, payload);
  const std::size_t good = segment.size();
  payload.clear();
  encode_epoch_close(payload, EpochClose{1, 0});
  encode_record(segment, RecordType::kEpochClose, 1, payload);

  // Every proper prefix that cuts into the second record: one good
  // record, then a tear — never a throw, never a partial record.
  for (std::size_t cut = good + 1; cut < segment.size(); ++cut) {
    SegmentReader reader(std::span<const std::byte>(segment.data(), cut));
    RecordView record;
    ASSERT_TRUE(reader.next(record));
    EXPECT_EQ(record.type, RecordType::kBaseRef);
    EXPECT_FALSE(reader.next(record));
    EXPECT_TRUE(reader.torn()) << "cut at " << cut;
    EXPECT_EQ(reader.offset(), good);
  }
}

TEST(WalFraming, OverboundLengthIsRejectedWithoutAllocation) {
  std::vector<std::byte> segment;
  std::vector<std::byte> payload;
  encode_base_ref(payload, BaseRef{0, 0});
  encode_record(segment, RecordType::kBaseRef, 0, payload);
  // Forge a payload_bytes far past kMaxRecordPayload with a fixed-up
  // header CRC: the reader must stop at the bound check, not trust the
  // length.
  std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(segment.data() + 16, &huge, sizeof(huge));
  const std::uint32_t crc =
      util::crc32c(segment.data(), 28);
  std::memcpy(segment.data() + 28, &crc, sizeof(crc));
  SegmentReader reader(segment);
  RecordView record;
  EXPECT_FALSE(reader.next(record));
  EXPECT_TRUE(reader.torn());
}

// ------------------------------------------- EpochLog + recover_dir --

PersistConfig fast_config(const std::string& dir) {
  PersistConfig config;
  config.dir = dir;
  config.epoch_period = std::chrono::milliseconds(2);
  return config;
}

TEST(EpochLog, ReplayIsBitIdenticalToTheLastClosedEpoch) {
  const auto dir = temp_dir();
  auto model = small_model(11);
  const auto blob = core::serialize_model(model, {});
  util::Xoshiro256 rng(13);

  {
    util::MetricsRegistry metrics;
    EpochLog log(fast_config(dir), blob, 0, metrics);
    // Mutate a copy the way the scrubber would: rewrite word ranges and
    // journal exactly those ranges.
    for (std::uint64_t version = 1; version <= 20; ++version) {
      const auto cls = rng.next() % kClasses;
      auto words = model.class_vector(cls).planes[0].mutable_words();
      const std::size_t begin = rng.next() % (words.size() - 4);
      const std::size_t count = 1 + rng.next() % 4;
      std::vector<std::uint64_t> fresh(count);
      for (auto& w : fresh) w = rng.next();
      std::copy(fresh.begin(), fresh.end(),
                words.begin() + static_cast<std::ptrdiff_t>(begin));
      model.class_vector(cls).planes[0].mask_tail();
      std::copy(words.begin() + static_cast<std::ptrdiff_t>(begin),
                words.begin() + static_cast<std::ptrdiff_t>(begin + count),
                fresh.begin());

      PlaneWrite write;
      write.cls = static_cast<std::uint32_t>(cls);
      write.plane = 0;
      write.word_begin = begin;
      write.words = std::move(fresh);
      log.append_publication(version, {std::move(write)}, std::nullopt);
    }
    log.close_epoch();
    const auto counters = metrics.snapshot();
    EXPECT_GE(counters.counter("persist.epochs_closed"), 1u);
    EXPECT_EQ(counters.counter("persist.deltas_appended"), 20u);
    EXPECT_EQ(counters.counter("persist.io_errors"), 0u);
  }

  const auto rec = recover_dir(dir);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->stats.state_crc_ok);
  EXPECT_FALSE(rec->stats.torn_tail);
  EXPECT_EQ(rec->model_version, 20u);
  EXPECT_TRUE(models_bit_identical(rec->model, model));
  remove_tree(dir);
}

TEST(EpochLog, EngineStateRoundTripsThroughTheLog) {
  const auto dir = temp_dir();
  const auto model = small_model(17);
  {
    util::MetricsRegistry metrics;
    EpochLog log(fast_config(dir), core::serialize_model(model, {}), 0,
                 metrics);
    model::RecoveryEngineState state;
    state.total_updates = 99;
    state.total_substituted_bits = 4321;
    state.best_health = 0.5;
    state.frozen = false;
    state.class_repairs = {4, 3, 2, 1};
    log.append_publication(1, {}, state);
    log.close_epoch();
  }
  const auto rec = recover_dir(dir);
  ASSERT_TRUE(rec.has_value());
  ASSERT_TRUE(rec->engine_state.has_value());
  EXPECT_EQ(rec->engine_state->total_updates, 99u);
  EXPECT_EQ(rec->engine_state->total_substituted_bits, 4321u);
  EXPECT_EQ(rec->engine_state->class_repairs,
            (std::vector<std::uint64_t>{4, 3, 2, 1}));
  remove_tree(dir);
}

TEST(EpochLog, UnterminatedEpochIsDiscardedOnReplay) {
  const auto dir = temp_dir();
  auto model = small_model(19);
  const auto blob = core::serialize_model(model, {});
  {
    util::MetricsRegistry metrics;
    EpochLog log(fast_config(dir), blob, 0, metrics);
    log.close_epoch();  // epoch 0: nothing — no close record written
  }
  // Append a delta with NO following EpochClose, simulating a kill-9
  // between write and fsync/close: replay must ignore it.
  std::uint64_t gen = 0;
  for (const auto& name : util::list_dir(dir)) {
    std::uint64_t g = 0;
    if (parse_base_file_name(name, g)) gen = g;
  }
  {
    auto segment =
        util::read_file(dir + "/" + segment_file_name(gen, 0), 1u << 20);
    std::vector<std::byte> payload;
    encode_plane_delta(payload, PlaneDelta{5, 0, 0, 0, {~0ull, ~0ull}});
    encode_record(segment, RecordType::kPlaneDelta, 99, payload);
    util::atomic_write_file(dir + "/" + segment_file_name(gen, 0), segment);
  }
  const auto rec = recover_dir(dir);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->stats.discarded_records, 1u);
  EXPECT_TRUE(models_bit_identical(rec->model, model));  // delta NOT applied
  remove_tree(dir);
}

TEST(EpochLog, RotationFencesStalePublications) {
  const auto dir = temp_dir();
  const auto model_a = small_model(23);
  auto model_b = small_model(29);
  {
    util::MetricsRegistry metrics;
    EpochLog log(fast_config(dir), core::serialize_model(model_a, {}), 0,
                 metrics);
    // Version-3 delta queued BEFORE a rotation to base_version 10: by the
    // time the log thread drains, the fence must drop it.
    PlaneWrite write;
    write.cls = 0;
    write.plane = 0;
    write.word_begin = 0;
    write.words = {~0ull};
    log.append_publication(3, {std::move(write)}, std::nullopt);
    log.rotate_generation(core::serialize_model(model_b, {}), 10);
    log.close_epoch();
    // Order within the batch is preserved: the publication precedes the
    // rotation, so it lands in generation 0 (fine — gen 0 is deleted).
    // Now a genuinely stale one against the NEW generation:
    PlaneWrite stale;
    stale.cls = 0;
    stale.plane = 0;
    stale.word_begin = 0;
    stale.words = {~0ull};
    log.append_publication(9, {std::move(stale)}, std::nullopt);  // <= 10
    log.close_epoch();
    EXPECT_EQ(metrics.snapshot().counter("persist.stale_discards"), 1u);
    EXPECT_GE(metrics.snapshot().counter("persist.rotations"), 1u);
    EXPECT_EQ(log.generation(), 1u);
  }
  const auto rec = recover_dir(dir);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->generation, 1u);
  EXPECT_TRUE(models_bit_identical(rec->model, model_b));
  remove_tree(dir);
}

TEST(EpochLog, CompactionFoldsTheWalIntoAFreshBase) {
  const auto dir = temp_dir();
  auto model = small_model(31);
  auto config = fast_config(dir);
  config.compact_bytes = 2048;  // force compaction almost immediately
  {
    util::MetricsRegistry metrics;
    EpochLog log(config, core::serialize_model(model, {}), 0, metrics);
    util::Xoshiro256 rng(37);
    for (std::uint64_t version = 1; version <= 30; ++version) {
      const auto cls = rng.next() % kClasses;
      auto words = model.class_vector(cls).planes[0].mutable_words();
      const std::size_t begin = rng.next() % (words.size() - 2);
      std::vector<std::uint64_t> fresh{rng.next(), rng.next()};
      std::copy(fresh.begin(), fresh.end(),
                words.begin() + static_cast<std::ptrdiff_t>(begin));
      model.class_vector(cls).planes[0].mask_tail();
      std::copy(words.begin() + static_cast<std::ptrdiff_t>(begin),
                words.begin() + static_cast<std::ptrdiff_t>(begin + 2),
                fresh.begin());
      PlaneWrite write;
      write.cls = static_cast<std::uint32_t>(cls);
      write.plane = 0;
      write.word_begin = begin;
      write.words = std::move(fresh);
      log.append_publication(version, {std::move(write)}, std::nullopt);
      log.close_epoch();
    }
    EXPECT_GE(metrics.snapshot().counter("persist.compactions"), 1u);
  }
  const auto rec = recover_dir(dir);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->stats.state_crc_ok);
  EXPECT_GE(rec->generation, 1u);
  EXPECT_TRUE(models_bit_identical(rec->model, model));
  remove_tree(dir);
}

TEST(Recover, EmptyDirectoryIsNullopt) {
  const auto dir = temp_dir();
  EXPECT_FALSE(has_state(dir));
  EXPECT_FALSE(recover_dir(dir).has_value());
  remove_tree(dir);
}

// ------------------------------------------- Server integration --------

serve::ServerConfig persist_server_config(const std::string& dir) {
  serve::ServerConfig config;
  config.worker_threads = 2;
  config.persist.dir = dir;
  config.persist.epoch_period = std::chrono::milliseconds(2);
  return config;
}

TEST(ServerPersist, GracefulShutdownRecoversBitIdentical) {
  const auto dir = temp_dir();
  auto model = small_model(41);
  util::Xoshiro256 rng(43);
  std::vector<hv::BinVec> queries;
  for (int i = 0; i < 60; ++i) {
    auto q = model.class_vector(rng.next() % kClasses).planes[0].to_binvec();
    for (std::size_t d = 0; d < kDim; ++d) {
      if (rng.bernoulli(0.04)) q.flip(d);
    }
    queries.push_back(std::move(q));
  }

  model::HdcModel at_shutdown;
  {
    serve::Server server(model, persist_server_config(dir));
    server.inject_faults(0.05, fault::AttackMode::kRandom, 7);
    for (const auto& q : queries) (void)server.submit(q).get();
    server.persist_barrier();
    // Capture *after* shutdown: the scrubber cannot publish past this
    // point, and shutdown's final epoch close makes that last snapshot
    // the durable one.
    server.shutdown();
    at_shutdown = *server.current_model();
  }
  ASSERT_TRUE(has_state(dir));
  auto recovered = serve::Server::recover(dir, persist_server_config(dir));
  EXPECT_TRUE(recovered->replay_stats().state_crc_ok);
  // Graceful shutdown closes a final epoch over the last publication, so
  // recovery resumes the exact serving state.
  EXPECT_TRUE(models_bit_identical(*recovered->current_model(), at_shutdown));
  // ...and the recovered server serves.
  const auto r = recovered->submit(queries[0]).get();
  EXPECT_GE(r.predicted, 0);
  recovered->shutdown();
  remove_tree(dir);
}

TEST(ServerPersist, ReloadRotatesTheGenerationAndRecoversTheNewModel) {
  const auto dir = temp_dir();
  const auto model_a = small_model(47);
  auto model_b = small_model(53);
  {
    serve::Server server(model_a, persist_server_config(dir));
    server.reload(model_b);
    server.persist_barrier();
    const auto stats = server.stats();
    EXPECT_GE(stats.wal_rotations, 1u);
    server.shutdown();
  }
  auto recovered = serve::Server::recover(dir, persist_server_config(dir));
  EXPECT_TRUE(models_bit_identical(*recovered->current_model(), model_b));
  EXPECT_GT(recovered->stats().replay_records, 0u);
  recovered->shutdown();
  remove_tree(dir);
}

// TSan regression: reloads racing recovery's engine-state rehydration and
// live traffic. No fork — this is the test the TSan job runs.
TEST(ServerPersist, ReloadRacingRecoveredServerIsClean) {
  const auto dir = temp_dir();
  auto model = small_model(59);
  {
    serve::Server server(model, persist_server_config(dir));
    server.inject_faults(0.02, fault::AttackMode::kRandom, 3);
    server.persist_barrier();
    server.shutdown();
  }
  auto recovered = serve::Server::recover(dir, persist_server_config(dir));
  std::thread reloader([&] {
    for (int i = 0; i < 20; ++i) {
      recovered->reload(model);
    }
  });
  util::Xoshiro256 rng(61);
  for (int i = 0; i < 100; ++i) {
    auto q = model.class_vector(rng.next() % kClasses).planes[0].to_binvec();
    (void)recovered->submit(std::move(q)).get();
  }
  reloader.join();
  recovered->persist_barrier();
  const auto stats = recovered->stats();
  EXPECT_EQ(stats.persist_io_errors, 0u);
  recovered->shutdown();
  // The directory must still replay after all that churn.
  EXPECT_TRUE(recover_dir(dir).has_value());
  remove_tree(dir);
}

}  // namespace
}  // namespace robusthd::persist
