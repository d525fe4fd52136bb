#include "robusthd/mem/plane_arena.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

#include "robusthd/util/bitops.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace robusthd::mem {

namespace {

constexpr std::size_t kVecWords = 8;  // one 512-bit vector / cache line

std::size_t round_up_words(std::size_t words) noexcept {
  std::size_t stride = (words + kVecWords - 1) / kVecWords * kVecWords;
  // De-alias power-of-two strides: with a page-multiple stride the same
  // tile chunk of every plane lands on the same small group of L2 sets
  // (the set index cycles with period 4096 / stride_bytes pages), and a
  // tile that nominally fits in L2 conflict-misses its way straight back
  // to L3. One extra cache line makes the line-stride odd, spreading
  // consecutive plane rows across every set.
  if (stride * sizeof(std::uint64_t) % 4096 == 0) stride += kVecWords;
  return stride;
}

/// Per-plane words the widest kernel query group keeps live in L1: an
/// 8-query group touches 9 chunks (8 query + 1 plane), and 9 x 4 KiB
/// sits under a 48 KiB L1d. Chunks above this cap make the query chunks
/// re-stream from L2 on every plane iteration, which costs more than the
/// extra per-chunk accumulator reduces a smaller chunk pays.
constexpr std::size_t kL1ChunkWords = 512;

/// Tile width so one tile of all planes targets `tile_bytes` (the L2
/// budget), rounded down to a whole vector, capped at kL1ChunkWords and
/// clamped to [8, words]. Small arenas collapse to a single tile.
std::size_t compute_tile_words(std::size_t planes, std::size_t words,
                               std::size_t tile_bytes) noexcept {
  if (words == 0 || planes == 0) return 0;
  std::size_t tw = tile_bytes / (sizeof(std::uint64_t) * planes);
  tw = tw / kVecWords * kVecWords;
  if (tw > kL1ChunkWords) tw = kL1ChunkWords;
  if (tw < kVecWords) tw = kVecWords;
  if (tw > words) tw = words;
  return tw;
}

}  // namespace

PlaneArenaConfig PlaneArenaConfig::from_env() {
  PlaneArenaConfig config;
  if (const char* v = std::getenv("ROBUSTHD_ARENA_TILE_KB")) {
    const long long kb = std::atoll(v);
    if (kb > 0) config.l2_tile_bytes = static_cast<std::size_t>(kb) * 1024;
  }
  if (const char* v = std::getenv("ROBUSTHD_ARENA_HUGEPAGES")) {
    config.hugepages = std::atoll(v) != 0;
  }
  return config;
}

PlaneArena::PlaneArena(std::size_t planes, std::size_t dimension,
                       const PlaneArenaConfig& config)
    : planes_(planes),
      dim_(dimension),
      words_(util::words_for_bits(dimension)) {
  stride_words_ = round_up_words(words_);
  tile_words_ = compute_tile_words(planes_, words_, config.l2_tile_bytes);
  allocate(config);
}

PlaneArena::~PlaneArena() { release(); }

PlaneArena::PlaneArena(const PlaneArena& other)
    : planes_(other.planes_),
      dim_(other.dim_),
      words_(other.words_),
      stride_words_(other.stride_words_),
      tile_words_(other.tile_words_) {
  if (other.base_ == nullptr) return;
  PlaneArenaConfig config;
  config.hugepages = other.hugepage_backed_;
  allocate(config);
  std::memcpy(base_, other.base_, bytes_);
}

PlaneArena& PlaneArena::operator=(const PlaneArena& other) {
  if (this == &other) return *this;
  // Same geometry: reuse the allocation, one memcpy (the snapshot-copy
  // hot path — publication of a repaired model).
  if (base_ != nullptr && other.base_ != nullptr && bytes_ == other.bytes_ &&
      stride_words_ == other.stride_words_ && planes_ == other.planes_) {
    dim_ = other.dim_;
    words_ = other.words_;
    tile_words_ = other.tile_words_;
    std::memcpy(base_, other.base_, bytes_);
    return *this;
  }
  PlaneArena copy(other);
  *this = std::move(copy);
  return *this;
}

PlaneArena::PlaneArena(PlaneArena&& other) noexcept
    : base_(other.base_),
      planes_(other.planes_),
      dim_(other.dim_),
      words_(other.words_),
      stride_words_(other.stride_words_),
      tile_words_(other.tile_words_),
      bytes_(other.bytes_),
      hugepage_backed_(other.hugepage_backed_),
      mmapped_(other.mmapped_) {
  other.base_ = nullptr;
  other.bytes_ = 0;
  other.planes_ = other.dim_ = other.words_ = 0;
  other.stride_words_ = other.tile_words_ = 0;
  other.hugepage_backed_ = other.mmapped_ = false;
}

PlaneArena& PlaneArena::operator=(PlaneArena&& other) noexcept {
  if (this == &other) return *this;
  release();
  base_ = other.base_;
  planes_ = other.planes_;
  dim_ = other.dim_;
  words_ = other.words_;
  stride_words_ = other.stride_words_;
  tile_words_ = other.tile_words_;
  bytes_ = other.bytes_;
  hugepage_backed_ = other.hugepage_backed_;
  mmapped_ = other.mmapped_;
  other.base_ = nullptr;
  other.bytes_ = 0;
  other.planes_ = other.dim_ = other.words_ = 0;
  other.stride_words_ = other.tile_words_ = 0;
  other.hugepage_backed_ = other.mmapped_ = false;
  return *this;
}

void PlaneArena::allocate(const PlaneArenaConfig& config) {
  bytes_ = planes_ * stride_words_ * sizeof(std::uint64_t);
  if (bytes_ == 0) {
    base_ = nullptr;
    return;
  }
#if defined(__linux__)
  // Anonymous mmap: page-aligned (>= 64B), zero-filled, and the only
  // allocation path madvise(MADV_HUGEPAGE) applies to. The hint is
  // best-effort by design — on kernels without THP (or with it disabled)
  // madvise fails and the arena runs on normal 4K pages.
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    base_ = static_cast<std::uint64_t*>(p);
    mmapped_ = true;
    if (config.hugepages) {
      hugepage_backed_ = ::madvise(base_, bytes_, MADV_HUGEPAGE) == 0;
    }
    return;
  }
#endif
  // Portable fallback: over-aligned operator new, zeroed by hand.
  base_ = static_cast<std::uint64_t*>(
      ::operator new(bytes_, std::align_val_t{64}));
  std::memset(base_, 0, bytes_);
  mmapped_ = false;
  hugepage_backed_ = false;
}

void PlaneArena::release() noexcept {
  if (base_ == nullptr) return;
#if defined(__linux__)
  if (mmapped_) {
    ::munmap(base_, bytes_);
    base_ = nullptr;
    return;
  }
#endif
  ::operator delete(base_, std::align_val_t{64});
  base_ = nullptr;
}

void PlaneArena::store_plane(std::size_t p, const hv::BinVec& v) noexcept {
  assert(p < planes_);
  assert(v.dimension() == dim_);
  std::memcpy(plane(p), v.words().data(), words_ * sizeof(std::uint64_t));
}

void PlaneArena::load_plane(std::size_t p, hv::BinVec& out) const noexcept {
  assert(p < planes_);
  if (out.dimension() != dim_) out = hv::BinVec(dim_);
  std::memcpy(out.mutable_words().data(), plane(p),
              words_ * sizeof(std::uint64_t));
}

}  // namespace robusthd::mem
