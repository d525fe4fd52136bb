#include "robusthd/mem/plane_arena.hpp"

#include <cassert>
#include <cstring>
#include <utility>

#include "robusthd/util/bitops.hpp"

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
  config.hugepages = util::hugepages_from_env();
  return config;
}

PlaneArena::PlaneArena(std::size_t planes, std::size_t dimension,
                       const PlaneArenaConfig& config)
    : planes_(planes),
      dim_(dimension),
      words_(util::words_for_bits(dimension)) {
  stride_words_ = round_up_words(words_);
  tile_words_ = compute_tile_words(planes_, words_, config.l2_tile_bytes);
  block_ = util::MappedBlock(planes_ * stride_words_ * sizeof(std::uint64_t),
                             config.hugepages);
}

PlaneArena::PlaneArena(const PlaneArena& other)
    : block_(other.bytes(), other.hugepage_backed()),
      planes_(other.planes_),
      dim_(other.dim_),
      words_(other.words_),
      stride_words_(other.stride_words_),
      tile_words_(other.tile_words_) {
  if (!other.empty()) std::memcpy(base(), other.base(), bytes());
}

PlaneArena& PlaneArena::operator=(const PlaneArena& other) {
  if (this == &other) return *this;
  // Same geometry: reuse the allocation, one memcpy (the snapshot-copy
  // hot path — publication of a repaired model).
  if (!empty() && !other.empty() && bytes() == other.bytes() &&
      stride_words_ == other.stride_words_ && planes_ == other.planes_) {
    dim_ = other.dim_;
    words_ = other.words_;
    tile_words_ = other.tile_words_;
    std::memcpy(base(), other.base(), bytes());
    return *this;
  }
  PlaneArena copy(other);
  *this = std::move(copy);
  return *this;
}

PlaneArena::PlaneArena(PlaneArena&& other) noexcept
    : block_(std::move(other.block_)),
      planes_(std::exchange(other.planes_, 0)),
      dim_(std::exchange(other.dim_, 0)),
      words_(std::exchange(other.words_, 0)),
      stride_words_(std::exchange(other.stride_words_, 0)),
      tile_words_(std::exchange(other.tile_words_, 0)) {}

PlaneArena& PlaneArena::operator=(PlaneArena&& other) noexcept {
  if (this == &other) return *this;
  block_ = std::move(other.block_);
  planes_ = std::exchange(other.planes_, 0);
  dim_ = std::exchange(other.dim_, 0);
  words_ = std::exchange(other.words_, 0);
  stride_words_ = std::exchange(other.stride_words_, 0);
  tile_words_ = std::exchange(other.tile_words_, 0);
  return *this;
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
