#pragma once
// A zeroed, 64-byte-aligned block of memory for the big arrays that are
// streamed whole: a model's planes (mem::PlaneArena) and, from the heap,
// training's class counters (hv::CounterStore).
//
// The block comes from an anonymous mmap: page-aligned, zero-filled, and
// the only memory madvise(MADV_HUGEPAGE) applies to. With transparent
// hugepages in madvise mode, a block of several MiB then takes 2 MiB pages
// instead of 4 KiB ones. The hint is best-effort: on kernels without THP
// (or with it disabled) the block runs on normal pages. Where the mapping
// itself fails, or mmap does not exist, the block comes from over-aligned
// operator new, zeroed by hand.

#include <cstddef>

namespace robusthd::util {

/// Whether blocks ask for transparent hugepages: true unless the
/// environment sets ROBUSTHD_ARENA_HUGEPAGES to 0. Read on every call.
bool hugepages_from_env();

/// Owns one block. Move-only; a default-constructed or moved-from block
/// holds nothing.
class MappedBlock {
 public:
  MappedBlock() = default;
  /// `bytes` zeroed bytes (no allocation for 0), hugepage-advised when
  /// `hugepages` is set.
  MappedBlock(std::size_t bytes, bool hugepages);
  /// The fallback on its own: `bytes` zeroed bytes from over-aligned
  /// operator new, never hugepage-backed. Once freed, the heap usually
  /// keeps its pages for the next allocation; a mapping's go back to the
  /// kernel.
  static MappedBlock from_heap(std::size_t bytes);
  ~MappedBlock();

  MappedBlock(const MappedBlock&) = delete;
  MappedBlock& operator=(const MappedBlock&) = delete;
  MappedBlock(MappedBlock&& other) noexcept;
  MappedBlock& operator=(MappedBlock&& other) noexcept;

  /// 64-byte aligned; nullptr when the block holds nothing.
  void* data() const noexcept { return base_; }
  std::size_t bytes() const noexcept { return bytes_; }
  /// True when the kernel accepted the MADV_HUGEPAGE request.
  bool hugepage_backed() const noexcept { return hugepage_backed_; }

 private:
  void allocate_heap();
  void release() noexcept;

  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  bool mapped_ = false;
  bool hugepage_backed_ = false;
};

}  // namespace robusthd::util
