// Tests for util::MappedBlock, the one allocation path behind the plane
// arena and the class-counter store: zeroed, 64-byte-aligned memory from
// an anonymous mapping (hugepage-advised on request) or, as the fallback,
// from over-aligned operator new.
#include "robusthd/util/mapped_block.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>

#include "hugepages_env.hpp"

namespace robusthd::util {
namespace {

constexpr std::size_t kBig = 3u << 20;  // past one 2 MiB hugepage

void expect_zeroed_and_aligned(const MappedBlock& block, std::size_t bytes,
                               const std::string& what) {
  ASSERT_NE(block.data(), nullptr) << what;
  EXPECT_EQ(block.bytes(), bytes) << what;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block.data()) % 64, 0u) << what;
  const auto* p = static_cast<const unsigned char*>(block.data());
  for (std::size_t i = 0; i < bytes; ++i) {
    ASSERT_EQ(p[i], 0u) << what << " byte " << i;
  }
  // Writable end to end.
  auto* w = static_cast<unsigned char*>(block.data());
  w[0] = 1;
  w[bytes - 1] = 1;
}

TEST(MappedBlock, EveryPathIsZeroedAndAligned) {
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{64},
                                  std::size_t{4095}, std::size_t{4096},
                                  kBig}) {
    const std::string size = std::to_string(bytes) + " bytes";
    expect_zeroed_and_aligned(MappedBlock(bytes, false), bytes,
                              size + ", hugepages off");
    expect_zeroed_and_aligned(MappedBlock(bytes, true), bytes,
                              size + ", hugepages on");
    expect_zeroed_and_aligned(MappedBlock::from_heap(bytes), bytes,
                              size + ", operator new");
  }
}

TEST(MappedBlock, ZeroBytesHoldNothing) {
  const MappedBlock mapped(0, true);
  EXPECT_EQ(mapped.data(), nullptr);
  EXPECT_FALSE(mapped.hugepage_backed());
  const auto heap = MappedBlock::from_heap(0);
  EXPECT_EQ(heap.data(), nullptr);
  const MappedBlock empty;
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.bytes(), 0u);
}

TEST(MappedBlock, HugepagesOffAreNeverBacked) {
  const MappedBlock block(kBig, false);
  EXPECT_FALSE(block.hugepage_backed());
}

TEST(MappedBlock, OperatorNewPathIsNeverBacked) {
  const auto block = MappedBlock::from_heap(kBig);
  EXPECT_FALSE(block.hugepage_backed());
}

/// Whether the kernel runs transparent hugepages at all. Its mode line
/// reads like "always [madvise] never": the bracketed word is in force.
bool kernel_has_hugepages() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  return std::getline(in, modes) &&
         modes.find("[never]") == std::string::npos;
}

TEST(MappedBlock, AvailableHugepagesBackAnAdvisedBlock) {
  // Where the kernel runs transparent hugepages at all, it accepts the
  // advice; the flag reports what it granted.
  if (!kernel_has_hugepages()) GTEST_SKIP() << "no transparent hugepages";
  EXPECT_TRUE(MappedBlock(kBig, true).hugepage_backed());
}

TEST(MappedBlock, IsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<MappedBlock>);
  static_assert(!std::is_copy_assignable_v<MappedBlock>);
  static_assert(std::is_nothrow_move_constructible_v<MappedBlock>);
  static_assert(std::is_nothrow_move_assignable_v<MappedBlock>);

  for (const bool heap : {false, true}) {
    MappedBlock block = heap ? MappedBlock::from_heap(4096)
                             : MappedBlock(4096, false);
    static_cast<unsigned char*>(block.data())[7] = 42;
    void* const base = block.data();

    MappedBlock moved(std::move(block));
    EXPECT_EQ(block.data(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(block.bytes(), 0u);
    EXPECT_EQ(moved.data(), base);

    // Assignment releases the destination's block and takes the source's.
    MappedBlock assigned(64, false);
    assigned = std::move(moved);
    EXPECT_EQ(moved.data(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(assigned.data(), base);
    EXPECT_EQ(assigned.bytes(), 4096u);
    EXPECT_EQ(static_cast<unsigned char*>(assigned.data())[7], 42);
  }
}

TEST(MappedBlock, EnvironmentSwitchesHugepagesOff) {
  {
    const test::HugepagesEnv unset(nullptr);
    EXPECT_TRUE(hugepages_from_env());
  }
  {
    const test::HugepagesEnv off("0");
    EXPECT_FALSE(hugepages_from_env());
  }
  {
    const test::HugepagesEnv on("1");
    EXPECT_TRUE(hugepages_from_env());
  }
}

}  // namespace
}  // namespace robusthd::util
