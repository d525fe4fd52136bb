// Tests for the small utilities: table printing, CSV emission, timer, and
// the fault-campaign runner.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/fault/campaign.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/crc32c.hpp"
#include "robusthd/util/csv.hpp"
#include "robusthd/util/rng.hpp"
#include "robusthd/util/table.hpp"
#include "robusthd/util/timer.hpp"

namespace robusthd {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

TEST(Crc32c, KnownAnswerVectors) {
  // The standard CRC32C check value (RFC 3720 appendix et al.).
  EXPECT_EQ(util::crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(util::crc32c(bytes_of("")), 0u);
  // 32 zero bytes — iSCSI test vector.
  EXPECT_EQ(util::crc32c(std::vector<std::byte>(32, std::byte{0})),
            0x8A9136AAu);
  EXPECT_EQ(util::crc32c(std::vector<std::byte>(32, std::byte{0xFF})),
            0x62A8AB43u);
}

TEST(Crc32c, ComposesIncrementally) {
  const auto whole = bytes_of("detect-and-refuse, then detect-and-repair");
  const auto full = util::crc32c(whole);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                          whole.size() - 1, whole.size()}) {
    const auto head = util::crc32c(std::span(whole).first(cut));
    EXPECT_EQ(util::crc32c(std::span(whole).subspan(cut), head), full)
        << "cut at " << cut;
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  auto data = bytes_of("robusthd model payload");
  const auto clean = util::crc32c(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
    EXPECT_NE(util::crc32c(data), clean) << "missed bit " << bit;
    data[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
  }
}

/// Every kernel tier this host can run, the scalar table first.
std::vector<std::pair<kernels::Isa, const kernels::Ops*>> crc_tiers() {
  std::vector<std::pair<kernels::Isa, const kernels::Ops*>> tiers;
  for (const auto isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (const auto* ops = kernels::ops_for(isa)) tiers.emplace_back(isa, ops);
  }
  return tiers;
}

TEST(Crc32c, KnownAnswerVectorsOnEveryTier) {
  const auto check = bytes_of("123456789");
  const std::vector<std::byte> zeros(32, std::byte{0});
  const std::vector<std::byte> ones(32, std::byte{0xFF});
  for (const auto& [isa, ops] : crc_tiers()) {
    const char* name = kernels::isa_name(isa);
    EXPECT_EQ(ops->crc32c(check.data(), check.size(), 0), 0xE3069283u)
        << name;
    EXPECT_EQ(ops->crc32c(nullptr, 0, 0), 0u) << name;
    EXPECT_EQ(ops->crc32c(zeros.data(), zeros.size(), 0), 0x8A9136AAu)
        << name;
    EXPECT_EQ(ops->crc32c(ones.data(), ones.size(), 0), 0x62A8AB43u)
        << name;
  }
}

TEST(Crc32c, InstructionPathMatchesTableAtEveryLengthAndOffset) {
  const auto& table = *kernels::ops_for(kernels::Isa::kScalar);
  util::Xoshiro256 rng(0xc3c32c);
  std::vector<unsigned char> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next());
  for (const auto& [isa, ops] : crc_tiers()) {
    std::size_t mismatches = 0;
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 1024; ++len) {
        const unsigned char* p = buf.data() + offset;
        // A fresh sum and one continued from an arbitrary prior value.
        const auto seed = static_cast<std::uint32_t>(len * 2654435761u);
        if (ops->crc32c(p, len, 0) != table.crc32c(p, len, 0) ||
            ops->crc32c(p, len, seed) != table.crc32c(p, len, seed)) {
          ADD_FAILURE() << kernels::isa_name(isa) << " offset " << offset
                        << " length " << len;
          if (++mismatches > 8) return;
        }
      }
    }
  }
}

TEST(Crc32c, PartialSumsComposeAcrossWordBoundaries) {
  util::Xoshiro256 rng(0x8b0da);
  std::vector<unsigned char> buf(64);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next());
  for (const auto& [isa, ops] : crc_tiers()) {
    const auto full = ops->crc32c(buf.data(), buf.size(), 0);
    // Every cut, so the second part starts at every position within an
    // 8-byte step, and the first part ends on both sides of a boundary.
    for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
      const auto head = ops->crc32c(buf.data(), cut, 0);
      EXPECT_EQ(ops->crc32c(buf.data() + cut, buf.size() - cut, head), full)
          << kernels::isa_name(isa) << " cut at " << cut;
    }
    // Three pieces straddling one word boundary: [0,5) [5,11) [11,64).
    auto sum = ops->crc32c(buf.data(), 5, 0);
    sum = ops->crc32c(buf.data() + 5, 6, sum);
    EXPECT_EQ(ops->crc32c(buf.data() + 11, buf.size() - 11, sum), full)
        << kernels::isa_name(isa);
  }
}

TEST(TextTable, AlignsColumns) {
  util::TextTable table({"name", "v"});
  table.add_row({"long-name", "1"}).add_row({"x", "22"});
  std::ostringstream os;
  table.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("| name      | v  |"), std::string::npos);
  EXPECT_NE(text.find("| long-name | 1  |"), std::string::npos);
  EXPECT_NE(text.find("| x         | 22 |"), std::string::npos);
}

TEST(TextTable, ToleratesShortRows) {
  util::TextTable table({"a", "b", "c"});
  table.add_row({"only-one"});
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(Formatting, PctAndFixed) {
  EXPECT_EQ(util::pct(0.1234), "12.34%");
  EXPECT_EQ(util::pct(0.1234, 0), "12%");
  EXPECT_EQ(util::pct(1.0, 1), "100.0%");
  EXPECT_EQ(util::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(util::fixed(-1.5, 0), "-2");  // round-half-to-even via iostream
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/robusthd_csv_test.csv";
  {
    util::CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row(1, "x");
    csv.row(2.5, "y,z");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,x");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,y,z");
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwritablePathIsSilentNoOp) {
  util::CsvWriter csv("/nonexistent-dir/impossible.csv", {"a"});
  EXPECT_FALSE(csv.ok());
  csv.row(1);  // must not crash
}

TEST(Timer, MeasuresElapsedTime) {
  util::Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.millis(), 15.0);
  timer.reset();
  EXPECT_LT(timer.millis(), 15.0);
}

TEST(Campaign, RunsRepetitionsAndAggregates) {
  // A fake "model": a byte buffer whose "accuracy" is the fraction of
  // zero bits — random flips lower it deterministically in expectation.
  struct Fake {
    std::vector<std::byte> bytes = std::vector<std::byte>(125, std::byte{0});
  };
  fault::CampaignConfig config;
  config.error_rate = 0.10;
  config.repetitions = 4;

  int victims_made = 0;
  const auto result = fault::run_campaign<Fake>(
      config, 1.0,
      [&] {
        ++victims_made;
        return Fake{};
      },
      [](Fake& fake) {
        return std::vector<fault::MemoryRegion>{
            {fake.bytes, 1, "fake"}};
      },
      [](const Fake& fake) {
        std::size_t zeros = 0;
        for (std::size_t i = 0; i < fake.bytes.size() * 8; ++i) {
          zeros += !util::get_bit(
              std::span<const std::byte>(fake.bytes), i);
        }
        return static_cast<double>(zeros) /
               static_cast<double>(fake.bytes.size() * 8);
      });

  EXPECT_EQ(victims_made, 4);
  EXPECT_EQ(result.faulty_accuracy.count(), 4u);
  EXPECT_NEAR(result.faulty_accuracy.mean(), 0.90, 1e-9);
  EXPECT_NEAR(result.mean_quality_loss(), 0.10, 1e-9);
}

}  // namespace
}  // namespace robusthd
