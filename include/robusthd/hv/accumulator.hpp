#pragma once
// Bundling accumulators.
//
// HDC bundling is per-dimension integer addition of binary vectors followed
// by a majority threshold. A bundle whose rows are all at hand is one call
// to kernels::majority, which keeps no per-dimension count at all. The
// record encoder still bundles its bound vectors (one per feature) into a
// word-parallel bit-sliced counter (O(log n) word ops per 64 dimensions)
// instead of 10,000 scalar counters. Class retraining adds and subtracts
// vectors with weights, and uses plain int32 counters; the kernels layer
// bundles into and thresholds them a SIMD vector of dimensions at a time.
// A trainer's class counters live in CounterStore blocks, and a
// SignedAccumulator is a view of one of their rows.

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/mapped_block.hpp"

namespace robusthd::hv {

/// Word-parallel unsigned counters: plane p holds bit p of every
/// dimension's count. Adding a binary vector is a ripple-carry add over the
/// planes, which costs O(planes) word ops per word of input.
class BitSliceCounter {
 public:
  BitSliceCounter() = default;
  explicit BitSliceCounter(std::size_t dimension);

  std::size_t dimension() const noexcept { return dim_; }
  std::size_t plane_count() const noexcept { return planes_.size(); }
  std::size_t added() const noexcept { return added_; }

  /// counts += bits (each dimension incremented where `bits` has a 1).
  void add(const BinVec& bits);

  /// counts += (a XOR b) — the fused bind-then-bundle step of record
  /// encoding. Equivalent to add(bind(a, b)) but never materialises the
  /// bound vector, so an encode loop does zero allocations per feature.
  void add_bound(const BinVec& a, const BinVec& b);

  /// Per-dimension count.
  std::uint32_t count(std::size_t dim) const noexcept;

  /// Majority threshold: bit i of the result is 1 iff count(i)*2 > total,
  /// ties broken by `tie_break` (a deterministic pseudo-random vector keeps
  /// thresholded vectors unbiased when the bundle size is even).
  BinVec threshold_majority(const BinVec* tie_break = nullptr) const;

  /// Allocation-free variant: writes the majority threshold into `out`
  /// (resized only when the dimension changed). Word-parallel bit-sliced
  /// compare — O(planes) word ops per 64 dimensions, not O(D * planes).
  void threshold_majority_into(BinVec& out,
                               const BinVec* tie_break = nullptr) const;

  /// Threshold against an arbitrary cut: bit i = count(i) > cut.
  BinVec threshold(std::uint32_t cut) const;

  /// Clears the counters for reuse. Plane storage is zeroed in place and
  /// kept, so a reused counter (EncodeWorkspace) allocates nothing once
  /// its plane count has stabilised.
  void reset();

  /// Re-targets the counter to `dimension`, reusing plane storage when the
  /// word width is unchanged.
  void resize(std::size_t dimension);

 private:
  std::size_t dim_ = 0;
  std::size_t words_ = 0;
  std::size_t added_ = 0;
  std::vector<std::vector<std::uint64_t>> planes_;
};

/// One row of signed per-dimension counters, viewed in place in its
/// CounterStore: class-hypervector training and retraining (supports
/// subtraction for perceptron-style updates). Adding runs on
/// kernels::bundle_signed, the sign on kernels::sign_pack. The mutable
/// view adds and writes counts; the read-only one, which a const store
/// hands out, only reads. Views are cheap values, valid while their store
/// is alive and not moved from.
template <bool Mutable>
class BasicSignedAccumulator {
 public:
  using Count = std::conditional_t<Mutable, std::int32_t, const std::int32_t>;

  BasicSignedAccumulator(Count* counts, std::size_t dimension) noexcept
      : counts_(counts), dim_(dimension) {}

  std::size_t dimension() const noexcept { return dim_; }
  Count& count(std::size_t dim) const noexcept { return counts_[dim]; }

  /// counts[i] += bit_i ? +1 : -1, scaled by weight (bipolar bundling).
  void add(const BinVec& bits, std::int32_t weight = 1) const
    requires Mutable
  {
    assert(bits.dimension() == dim_);
    kernels::bundle_signed(counts_, bits.words().data(), dim_, weight);
  }

  /// Sign threshold: bit i = counts[i] > 0 (ties -> tie_break bit or 0).
  BinVec sign(const BinVec* tie_break = nullptr) const;

  /// Allocation-free sign(): writes the threshold into `out`, resized only
  /// when its dimension differs. `tie_break` may be `&out`, in which case
  /// tied dimensions keep their old bits.
  void sign_into(BinVec& out, const BinVec* tie_break = nullptr) const;

  /// sign() into raw packed words, ties to 0: writes
  /// util::words_for_bits(dimension()) words at `out` with every bit past
  /// the dimension clear (a plane-arena row, say).
  void sign_into(std::uint64_t* out) const {
    kernels::sign_pack(counts_, dim_, nullptr, out);
  }

  /// Quantises each counter into `bits`-bit magnitude levels and returns
  /// one binary plane per bit (plane p carries weight 2^p). This is the
  /// multi-precision model of Table 1: 1 bit == sign only, 2 bits == sign
  /// plus one magnitude level.
  std::vector<BinVec> quantize_planes(unsigned bits) const;

 private:
  Count* counts_;
  std::size_t dim_;
};

using SignedAccumulator = BasicSignedAccumulator<true>;
using ConstSignedAccumulator = BasicSignedAccumulator<false>;

/// `rows` rows of `dimension` int32 counters in one zeroed heap block
/// (util::MappedBlock::from_heap). HdcModel::train gives each class it
/// retrains a one-row store, an OnlineTrainer holds a row per class, and
/// each associative-memory slot a one-row store. Each row starts on a
/// cache line: the row stride is the dimension rounded up to 16
/// counters, and the padding stays zero.
/// Move-only; a default-constructed or moved-from store has no rows.
class CounterStore {
 public:
  CounterStore() = default;
  CounterStore(std::size_t rows, std::size_t dimension);

  CounterStore(CounterStore&& other) noexcept;
  CounterStore& operator=(CounterStore&& other) noexcept;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dimension() const noexcept { return dim_; }

  SignedAccumulator row(std::size_t r) noexcept {
    assert(r < rows_);
    return {base() + r * stride_, dim_};
  }
  ConstSignedAccumulator row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {base() + r * stride_, dim_};
  }

 private:
  std::int32_t* base() const noexcept {
    return static_cast<std::int32_t*>(block_.data());
  }

  util::MappedBlock block_;
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace robusthd::hv
