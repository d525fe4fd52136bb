#include "robusthd/util/mapped_block.hpp"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace robusthd::util {

namespace {
constexpr std::align_val_t kAlignment{64};
}  // namespace

bool hugepages_from_env() {
  const char* v = std::getenv("ROBUSTHD_ARENA_HUGEPAGES");
  return v == nullptr || std::atoll(v) != 0;
}

MappedBlock::MappedBlock(std::size_t bytes, bool hugepages) : bytes_(bytes) {
  if (bytes_ == 0) return;
#if defined(__linux__)
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    base_ = p;
    mapped_ = true;
    if (hugepages) hugepage_backed_ = ::madvise(p, bytes_, MADV_HUGEPAGE) == 0;
    return;
  }
#else
  (void)hugepages;
#endif
  allocate_heap();
}

MappedBlock MappedBlock::from_heap(std::size_t bytes) {
  MappedBlock block;
  block.bytes_ = bytes;
  if (bytes > 0) block.allocate_heap();
  return block;
}

MappedBlock::~MappedBlock() { release(); }

MappedBlock::MappedBlock(MappedBlock&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      hugepage_backed_(std::exchange(other.hugepage_backed_, false)) {}

MappedBlock& MappedBlock::operator=(MappedBlock&& other) noexcept {
  if (this == &other) return *this;
  release();
  base_ = std::exchange(other.base_, nullptr);
  bytes_ = std::exchange(other.bytes_, 0);
  mapped_ = std::exchange(other.mapped_, false);
  hugepage_backed_ = std::exchange(other.hugepage_backed_, false);
  return *this;
}

void MappedBlock::allocate_heap() {
  base_ = ::operator new(bytes_, kAlignment);
  std::memset(base_, 0, bytes_);
}

void MappedBlock::release() noexcept {
  if (base_ == nullptr) return;
#if defined(__linux__)
  if (mapped_) {
    ::munmap(base_, bytes_);
    base_ = nullptr;
    return;
  }
#endif
  ::operator delete(base_, kAlignment);
  base_ = nullptr;
}

}  // namespace robusthd::util
