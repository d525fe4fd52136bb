// Tests for model serialisation.
#include "robusthd/core/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "robusthd/core/storage_integrity.hpp"
#include "robusthd/data/synthetic.hpp"
#include "robusthd/fault/injector.hpp"
#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::core {
namespace {

data::Split small_split() {
  const auto spec = data::scaled(data::dataset_by_name("PAMAP"), 300, 100);
  return data::make_synthetic(spec);
}

HdcClassifierConfig small_config() {
  HdcClassifierConfig config;
  config.encoder.dimension = 2000;
  return config;
}

TEST(Serialize, BlobRoundTripsPredictions) {
  const auto split = small_split();
  auto original = HdcClassifier::train(split.train, small_config());
  const auto blob = serialize(original);
  EXPECT_GT(blob.size(), 1000u);

  auto restored = deserialize(blob);
  EXPECT_EQ(restored.model().num_classes(), original.model().num_classes());
  EXPECT_EQ(restored.model().dimension(), original.model().dimension());
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    ASSERT_EQ(restored.predict(split.test.sample(i)),
              original.predict(split.test.sample(i)))
        << "sample " << i;
  }
}

TEST(Serialize, RoundTripsMultibitModels) {
  const auto split = small_split();
  auto config = small_config();
  config.model.precision_bits = 2;
  auto original = HdcClassifier::train(split.train, config);
  auto restored = deserialize(serialize(original));
  EXPECT_EQ(restored.model().precision_bits(), 2u);
  for (std::size_t i = 0; i < 30; ++i) {
    ASSERT_EQ(restored.predict(split.test.sample(i)),
              original.predict(split.test.sample(i)));
  }
}

TEST(Serialize, RejectsGarbage) {
  std::vector<std::byte> garbage(64, std::byte{0xAB});
  EXPECT_THROW(deserialize(garbage), std::runtime_error);
  std::vector<std::byte> tiny(4, std::byte{0});
  EXPECT_THROW(deserialize(tiny), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedBlob) {
  const auto split = small_split();
  auto original = HdcClassifier::train(split.train, small_config());
  auto blob = serialize(original);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(deserialize(blob), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  const auto split = small_split();
  auto original = HdcClassifier::train(split.train, small_config());
  const std::string path = "/tmp/robusthd_serialize_test.rhd";
  save_model(original, path);
  auto restored = load_model(path);
  std::remove(path.c_str());
  EXPECT_NEAR(restored.evaluate(split.test), original.evaluate(split.test),
              1e-12);
}

TEST(Serialize, FileErrorsThrow) {
  EXPECT_THROW(load_model("/nonexistent/dir/model.rhd"), std::runtime_error);
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  EXPECT_THROW(save_model(clf, "/nonexistent/dir/model.rhd"),
               std::runtime_error);
}

TEST(Serialize, AttackedModelSurvivesRoundTrip) {
  // Serialisation must preserve the *exact* stored bits — including
  // injected faults (the blob is the attack surface at rest).
  const auto split = small_split();
  auto original = HdcClassifier::train(split.train, small_config());
  util::Xoshiro256 rng(1);
  auto regions = original.memory_regions();
  fault::BitFlipInjector::inject(regions, 0.1, fault::AttackMode::kRandom,
                                 rng);
  auto restored = deserialize(serialize(original));
  // Compare the D meaningful bits (deserialisation re-zeros the padding
  // bits of the final word, which the injector may have flipped).
  for (std::size_t c = 0; c < original.model().num_classes(); ++c) {
    const auto a = restored.model().plane_words(c, 0);
    const auto b = original.model().plane_words(c, 0);
    EXPECT_EQ(hv::hamming_range(a, b, 0, original.model().dimension()), 0u)
        << c;
  }
}

void flip_bit(std::vector<std::byte>& blob, std::size_t bit) {
  blob[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
}

/// Patches a little-endian field into an RHD2 header and re-fixes the
/// header CRC (bytes [0, 60)) so only the *semantic* validation can
/// reject it — models a hostile writer, not random corruption.
template <typename T>
void patch_rhd2_field(std::vector<std::byte>& blob, std::size_t offset,
                      T value) {
  std::memcpy(blob.data() + offset, &value, sizeof(T));
  const std::uint32_t crc = util::crc32c(blob.data(), 60);
  std::memcpy(blob.data() + 60, &crc, sizeof(crc));
}

TEST(Serialize, InspectReportsShapeAndFormat) {
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());

  const auto info = inspect(serialize(clf));
  EXPECT_EQ(info.version, kFormatRhd2);
  EXPECT_TRUE(info.integrity_checked);
  EXPECT_EQ(info.dimension, clf.model().dimension());
  EXPECT_EQ(info.num_classes, clf.model().num_classes());
  EXPECT_EQ(info.precision_bits, clf.model().precision_bits());
  EXPECT_EQ(info.feature_count, clf.encoder().feature_count());
  EXPECT_EQ(info.levels, clf.encoder_config().levels);
  EXPECT_EQ(info.encoder_seed, clf.encoder_config().seed);

  const auto legacy = inspect(serialize_rhd1(clf));
  EXPECT_EQ(legacy.version, kFormatRhd1);
  EXPECT_FALSE(legacy.integrity_checked);
  EXPECT_EQ(legacy.dimension, info.dimension);
}

TEST(Serialize, LegacyRhd1BlobsStillLoad) {
  // Backward compatibility: blobs written by the pre-RHD2 format must
  // keep loading bit-exactly.
  const auto split = small_split();
  auto original = HdcClassifier::train(split.train, small_config());
  auto restored = deserialize(serialize_rhd1(original));
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    ASSERT_EQ(restored.predict(split.test.sample(i)),
              original.predict(split.test.sample(i)))
        << "sample " << i;
  }
}

TEST(Serialize, RejectsTrailingBytes) {
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  for (const bool legacy : {false, true}) {
    auto blob = legacy ? serialize_rhd1(clf) : serialize(clf);
    blob.push_back(std::byte{0});
    try {
      deserialize(blob);
      FAIL() << "trailing byte accepted (legacy=" << legacy << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, EveryTruncationLengthRejected) {
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  for (const bool legacy : {false, true}) {
    const auto blob = legacy ? serialize_rhd1(clf) : serialize(clf);
    // Every header cut, then a stride through the payload lengths.
    for (std::size_t len = 0; len < blob.size();
         len = (len < 64) ? len + 1 : len + 61) {
      std::vector<std::byte> cut(blob.begin(), blob.begin() + len);
      EXPECT_THROW(deserialize(cut), std::runtime_error)
          << "length " << len << " accepted (legacy=" << legacy << ")";
    }
  }
}

TEST(Serialize, EverySingleBitFlipIsDetected) {
  // The acceptance bar: a single flipped bit *anywhere* in an RHD2 blob
  // — header fields, either CRC, or payload — must make loading fail.
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  auto blob = serialize(clf);
  for (std::size_t bit = 0; bit < blob.size() * 8; ++bit) {
    flip_bit(blob, bit);
    EXPECT_THROW(deserialize(blob), std::runtime_error)
        << "single-bit flip at bit " << bit << " loaded silently";
    flip_bit(blob, bit);
  }
  EXPECT_NO_THROW(deserialize(blob));  // restored blob is intact
}

TEST(Serialize, RandomMultiBitCorruptionDetected) {
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  const auto blob = serialize(clf);
  util::Xoshiro256 rng(7);
  for (const double rate : {0.001, 0.01, 0.1}) {
    const auto cell = storage_roundtrip(blob, rate, 40, rng);
    EXPECT_EQ(cell.detected, cell.corrupted) << "rate " << rate;
  }
}

TEST(Serialize, HeaderBoundsCheckedIndependentlyOfCrc) {
  // A hostile writer can produce a blob with *valid* CRCs and an insane
  // shape; the sanity bounds must reject it before any allocation.
  // HeaderV2 offsets: dimension 8, levels 16, feature_count 32,
  // precision_bits 40, num_classes 44, payload_bytes 48.
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  const auto good = serialize(clf);

  const auto expect_reject = [&](std::size_t offset, auto value,
                                 const char* what) {
    auto blob = good;
    patch_rhd2_field(blob, offset, value);
    EXPECT_THROW(deserialize(blob), std::runtime_error) << what;
  };
  expect_reject(8, std::uint64_t{kMaxDimension + 1}, "dimension bound");
  expect_reject(8, std::uint64_t{0}, "zero dimension");
  expect_reject(16, std::uint64_t{kMaxLevels + 1}, "levels bound");
  expect_reject(32, std::uint64_t{kMaxFeatureCount + 1}, "features bound");
  expect_reject(40, std::uint32_t{0}, "zero precision");
  expect_reject(40, std::uint32_t{9}, "precision bound");
  expect_reject(44, std::uint32_t{0}, "zero classes");
  expect_reject(44, std::uint32_t{kMaxClasses + 1}, "classes bound");
  expect_reject(48, std::uint64_t{1}, "payload size mismatch");

  // Control: re-patching the true dimension leaves the blob loadable.
  auto blob = good;
  patch_rhd2_field(blob, 8, std::uint64_t{clf.model().dimension()});
  EXPECT_NO_THROW(deserialize(blob));
}

TEST(Serialize, Rhd1HeaderBoundsChecked) {
  // The legacy path carries no CRC, so bounds are its *only* defence —
  // the original loader skipped them entirely (the bug this PR fixes).
  const auto split = small_split();
  auto clf = HdcClassifier::train(split.train, small_config());
  const auto good = serialize_rhd1(clf);

  const auto expect_reject = [&](std::size_t offset, auto value,
                                 const char* what) {
    auto blob = good;
    std::memcpy(blob.data() + offset, &value, sizeof(value));
    EXPECT_THROW(deserialize(blob), std::runtime_error) << what;
  };
  // HeaderV1 offsets: dimension 8, levels 16, feature_count 32,
  // precision_bits 40, num_classes 44.
  expect_reject(8, std::uint64_t{kMaxDimension + 1}, "dimension bound");
  expect_reject(16, std::uint64_t{kMaxLevels + 1}, "levels bound");
  expect_reject(32, std::uint64_t{kMaxFeatureCount + 1}, "features bound");
  expect_reject(40, std::uint32_t{0}, "zero precision");
  expect_reject(44, std::uint32_t{kMaxClasses + 1}, "classes bound");
}

}  // namespace
}  // namespace robusthd::core
