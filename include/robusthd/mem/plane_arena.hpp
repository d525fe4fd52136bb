#pragma once
// robusthd::mem::PlaneArena — contiguous tiled class-plane storage.
//
// The associative memory of a deployed HDC model is k (or k * precision)
// fixed-length bit planes that every hot loop streams together: batched
// scoring, the recovery engine's chunk sweep, the sentinel's drift diff.
// The arena is the model's only plane store: it owns *all* planes of one
// model snapshot in a single 64-byte-aligned util::MappedBlock (optionally
// hugepage-backed via madvise(MADV_HUGEPAGE), with graceful fallback when
// transparent hugepages are unavailable):
//
//   plane p  ->  [base + p*stride_words, base + p*stride_words + words)
//
// The stride is the word count rounded up to 8 (one 512-bit vector /
// cache line), so every plane row starts cache-line-aligned and the
// padding words stay zero. Tiling is a property of the *kernels*, not the
// layout: plane(i) stays a plain contiguous row, while the arena kernel
// (kernels::hamming_matrix_arena)
// walks the word dimension in tiles sized so one tile of all k planes fits
// in L2 — the in-memory-HDC "associative memory as one array" view with
// cache blocking on top. Integer popcount partial sums make every tile
// split bit-identical to the untiled traversal.

#include <cstddef>
#include <cstdint>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/mapped_block.hpp"

namespace robusthd::mem {

struct PlaneArenaConfig {
  /// Target footprint of one tile across *all* planes. Sized to half a
  /// typical per-core L2 so the query block and quarantine mask fit
  /// beside it. Tile width = l2_tile_bytes / (8 * planes), rounded down
  /// to a whole 512-bit vector (8 words) and clamped to [8, words].
  std::size_t l2_tile_bytes = 1u << 20;
  /// Request transparent hugepages for the allocation. Best-effort: when
  /// the kernel refuses (THP disabled, allocation too small), the arena
  /// silently runs on normal pages and hugepage_backed() reports false.
  bool hugepages = true;

  /// The defaults with ROBUSTHD_ARENA_HUGEPAGES (0 disables,
  /// util::hugepages_from_env) read over `hugepages`.
  static PlaneArenaConfig from_env();
};

/// One model snapshot's plane storage. Deep-copyable (snapshot publication
/// copies the whole arena in one memcpy) and movable; default-constructed
/// arenas are empty and hold no allocation.
class PlaneArena {
 public:
  PlaneArena() = default;
  PlaneArena(std::size_t planes, std::size_t dimension,
             const PlaneArenaConfig& config = PlaneArenaConfig::from_env());

  PlaneArena(const PlaneArena& other);
  PlaneArena& operator=(const PlaneArena& other);
  PlaneArena(PlaneArena&& other) noexcept;
  PlaneArena& operator=(PlaneArena&& other) noexcept;

  bool empty() const noexcept { return block_.data() == nullptr; }
  std::size_t num_planes() const noexcept { return planes_; }
  std::size_t dimension() const noexcept { return dim_; }
  /// Live words per plane (words_for_bits(dimension())).
  std::size_t words() const noexcept { return words_; }
  /// Allocation stride between consecutive plane rows, a multiple of 8.
  std::size_t stride_words() const noexcept { return stride_words_; }
  /// Tile width in words the kernels block on (multiple of 8, or == words
  /// for single-tile arenas).
  std::size_t tile_words() const noexcept { return tile_words_; }
  std::size_t num_tiles() const noexcept {
    return tile_words_ == 0 ? 0 : (words_ + tile_words_ - 1) / tile_words_;
  }
  /// Total allocation size in bytes.
  std::size_t bytes() const noexcept { return block_.bytes(); }
  /// True when the MADV_HUGEPAGE request was accepted by the kernel.
  bool hugepage_backed() const noexcept { return block_.hugepage_backed(); }

  const std::uint64_t* data() const noexcept { return base(); }
  const std::uint64_t* plane(std::size_t p) const noexcept {
    return base() + p * stride_words_;
  }
  std::uint64_t* plane(std::size_t p) noexcept {
    return base() + p * stride_words_;
  }

  /// The kernel-facing view (base, stride, words, tile geometry).
  kernels::PlaneSet view() const noexcept {
    kernels::PlaneSet ps;
    ps.base = base();
    ps.planes = planes_;
    ps.stride_words = stride_words_;
    ps.words = words_;
    ps.tile_words = tile_words_;
    return ps;
  }

  /// Copies a BinVec's words into plane row p (dimensions must match).
  void store_plane(std::size_t p, const hv::BinVec& v) noexcept;
  /// Copies plane row p back out into a BinVec of the arena's dimension.
  void load_plane(std::size_t p, hv::BinVec& out) const noexcept;

 private:
  std::uint64_t* base() const noexcept {
    return static_cast<std::uint64_t*>(block_.data());
  }

  util::MappedBlock block_;
  std::size_t planes_ = 0;
  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  std::size_t stride_words_ = 0;
  std::size_t tile_words_ = 0;
};

}  // namespace robusthd::mem
