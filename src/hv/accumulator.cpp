#include "robusthd/hv/accumulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/stats.hpp"

namespace robusthd::hv {

BitSliceCounter::BitSliceCounter(std::size_t dimension)
    : dim_(dimension), words_(util::words_for_bits(dimension)) {}

namespace {

/// Ripple-carry add of the 1-bit operand `word` into the plane stack at
/// word index `w`, growing the stack only when the count overflows every
/// existing plane.
inline void ripple_add_word(std::vector<std::vector<std::uint64_t>>& planes,
                            std::size_t words, std::size_t w,
                            std::uint64_t carry) {
  for (std::size_t p = 0; p < planes.size() && carry; ++p) {
    const std::uint64_t sum = planes[p][w] ^ carry;
    carry &= planes[p][w];
    planes[p][w] = sum;
  }
  if (carry) {
    planes.emplace_back(words, 0);
    planes.back()[w] = carry;
  }
}

}  // namespace

void BitSliceCounter::add(const BinVec& bits) {
  assert(bits.dimension() == dim_);
  const auto in = bits.words();
  // Ripple-carry add of a 1-bit operand across all planes, word-parallel.
  for (std::size_t w = 0; w < words_; ++w) {
    ripple_add_word(planes_, words_, w, in[w]);
  }
  ++added_;
}

void BitSliceCounter::add_bound(const BinVec& a, const BinVec& b) {
  assert(a.dimension() == dim_ && b.dimension() == dim_);
  const auto aw = a.words();
  const auto bw = b.words();
  // Fused XOR-bind + bundle: the bound vector exists only as one word of
  // live register state per iteration.
  for (std::size_t w = 0; w < words_; ++w) {
    ripple_add_word(planes_, words_, w, aw[w] ^ bw[w]);
  }
  ++added_;
}

std::uint32_t BitSliceCounter::count(std::size_t dim) const noexcept {
  std::uint32_t c = 0;
  const std::size_t word = dim >> 6;
  const std::size_t bit = dim & 63;
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    c |= static_cast<std::uint32_t>((planes_[p][word] >> bit) & 1ULL) << p;
  }
  return c;
}

namespace {

/// Bit-sliced comparison of every dimension's count against the constant
/// `cut` for one word column: `gt` gets a 1 where count > cut, `eq` where
/// count == cut. Planes at p >= plane_count are treated as zero so the
/// comparison is exact even when `cut` needs more bits than the stack
/// holds.
inline void compare_counts_word(
    const std::vector<std::vector<std::uint64_t>>& planes, std::size_t w,
    std::uint32_t cut, std::uint64_t& gt, std::uint64_t& eq) noexcept {
  gt = 0;
  eq = ~0ULL;
  const std::size_t cut_bits =
      cut == 0 ? 0 : static_cast<std::size_t>(std::bit_width(cut));
  const std::size_t top = std::max(planes.size(), cut_bits);
  for (std::size_t p = top; p-- > 0;) {
    const std::uint64_t plane = p < planes.size() ? planes[p][w] : 0;
    const std::uint64_t cbit = (cut >> p) & 1u ? ~0ULL : 0;
    gt |= eq & plane & ~cbit;
    eq &= ~(plane ^ cbit);
  }
}

}  // namespace

void BitSliceCounter::threshold_majority_into(BinVec& out,
                                              const BinVec* tie_break) const {
  if (out.dimension() != dim_) out = BinVec(dim_);
  const auto total = static_cast<std::uint32_t>(added_);
  // count*2 > total  <=>  count > floor(total/2)  (for odd totals the
  // strict inequality rounds the same way); ties (count*2 == total) only
  // exist when the total is even.
  const std::uint32_t cut = total / 2;
  const bool ties_possible = (total % 2) == 0;
  auto ow = out.mutable_words();
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t gt, eq;
    compare_counts_word(planes_, w, cut, gt, eq);
    std::uint64_t bits = gt;
    if (ties_possible && tie_break != nullptr) {
      bits |= eq & tie_break->words()[w];
    }
    ow[w] = bits;
  }
  out.mask_tail();
}

BinVec BitSliceCounter::threshold_majority(const BinVec* tie_break) const {
  BinVec out(dim_);
  threshold_majority_into(out, tie_break);
  return out;
}

BinVec BitSliceCounter::threshold(std::uint32_t cut) const {
  BinVec out(dim_);
  auto ow = out.mutable_words();
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t gt, eq;
    compare_counts_word(planes_, w, cut, gt, eq);
    ow[w] = gt;
  }
  out.mask_tail();
  return out;
}

void BitSliceCounter::reset() {
  // Zero in place: plane storage survives, so steady-state reuse through
  // EncodeWorkspace performs no allocations once the stack has grown to
  // its working depth (ceil(log2(bundle size)) planes).
  for (auto& plane : planes_) std::fill(plane.begin(), plane.end(), 0);
  added_ = 0;
}

void BitSliceCounter::resize(std::size_t dimension) {
  const std::size_t words = util::words_for_bits(dimension);
  if (words != words_) {
    planes_.clear();
    words_ = words;
  }
  dim_ = dimension;
  reset();
}

namespace {

/// Counters from one row's start to the next: the dimension rounded up to
/// a cache line of int32s.
std::size_t row_stride(std::size_t dimension) noexcept {
  return (dimension + 15) / 16 * 16;
}

}  // namespace

CounterStore::CounterStore(std::size_t rows, std::size_t dimension)
    : block_(util::MappedBlock::from_heap(rows * row_stride(dimension) *
                                          sizeof(std::int32_t))),
      rows_(rows),
      dim_(dimension),
      stride_(row_stride(dimension)) {}

CounterStore::CounterStore(CounterStore&& other) noexcept
    : block_(std::move(other.block_)),
      rows_(std::exchange(other.rows_, 0)),
      dim_(std::exchange(other.dim_, 0)),
      stride_(std::exchange(other.stride_, 0)) {}

CounterStore& CounterStore::operator=(CounterStore&& other) noexcept {
  block_ = std::move(other.block_);
  rows_ = std::exchange(other.rows_, 0);
  dim_ = std::exchange(other.dim_, 0);
  stride_ = std::exchange(other.stride_, 0);
  return *this;
}

template <bool Mutable>
BinVec BasicSignedAccumulator<Mutable>::sign(const BinVec* tie_break) const {
  BinVec out(dim_);
  sign_into(out, tie_break);
  return out;
}

template <bool Mutable>
void BasicSignedAccumulator<Mutable>::sign_into(BinVec& out,
                                                const BinVec* tie_break) const {
  assert(tie_break == nullptr || tie_break->dimension() == dim_);
  if (out.dimension() != dim_) out = BinVec(dim_);
  kernels::sign_pack(counts_, dim_,
                     tie_break != nullptr ? tie_break->words().data() : nullptr,
                     out.mutable_words().data());
}

template <bool Mutable>
std::vector<BinVec> BasicSignedAccumulator<Mutable>::quantize_planes(
    unsigned bits) const {
  assert(bits >= 1 && bits <= 8);
  std::vector<BinVec> planes(bits, BinVec(dim_));

  if (bits == 1) {
    planes[0] = sign();
    return planes;
  }

  // Robust scale: 95th percentile of |count| so a few outlier dimensions do
  // not flatten everything else into the middle levels.
  std::vector<double> mags(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    mags[i] = std::abs(static_cast<double>(counts_[i]));
  }
  double scale = util::percentile(std::move(mags), 95.0);
  if (scale <= 0.0) scale = 1.0;

  const auto levels = (1u << bits) - 1;  // top level index
  for (std::size_t i = 0; i < dim_; ++i) {
    // Map count in [-scale, scale] to level in [0, levels]; level encodes
    // quantised confidence that the underlying bit is 1.
    const double x =
        std::clamp(static_cast<double>(counts_[i]) / scale, -1.0, 1.0);
    const auto level = static_cast<unsigned>(
        std::lround((x + 1.0) / 2.0 * static_cast<double>(levels)));
    for (unsigned p = 0; p < bits; ++p) {
      if ((level >> p) & 1u) planes[p].set(i, true);
    }
  }
  return planes;
}

template class BasicSignedAccumulator<true>;
template class BasicSignedAccumulator<false>;

}  // namespace robusthd::hv
