#include "robusthd/hv/binvec.hpp"

#include <bit>
#include <cassert>

namespace robusthd::hv {

BinVec BinVec::random(std::size_t dimension, util::Xoshiro256& rng) {
  BinVec v(dimension);
  rng.fill(v.words_);
  v.mask_tail();
  return v;
}

BinVec& BinVec::bind(const BinVec& other) noexcept {
  assert(dim_ == other.dim_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BinVec& BinVec::invert() noexcept {
  for (auto& w : words_) w = ~w;
  mask_tail();
  return *this;
}

namespace {

/// OR-accumulates `src` shifted left by `shift` bit positions into `dst`
/// (big-endian-free funnel over the packed word array). Bits pushed past
/// the top of the array are dropped; bits pushed into the tail region of
/// the last word are cleaned up by the caller's mask_tail().
void or_shifted_left(std::span<std::uint64_t> dst,
                     std::span<const std::uint64_t> src,
                     std::size_t shift) noexcept {
  const std::size_t ws = shift >> 6;
  const std::size_t bs = shift & 63;
  for (std::size_t w = dst.size(); w-- > ws;) {
    std::uint64_t v = src[w - ws] << bs;
    if (bs != 0 && w > ws) v |= src[w - ws - 1] >> (64 - bs);
    dst[w] |= v;
  }
}

/// OR-accumulates `src` shifted right by `shift` bit positions into `dst`.
void or_shifted_right(std::span<std::uint64_t> dst,
                      std::span<const std::uint64_t> src,
                      std::size_t shift) noexcept {
  const std::size_t ws = shift >> 6;
  const std::size_t bs = shift & 63;
  for (std::size_t w = 0; w + ws < src.size(); ++w) {
    std::uint64_t v = src[w + ws] >> bs;
    if (bs != 0 && w + ws + 1 < src.size()) v |= src[w + ws + 1] << (64 - bs);
    dst[w] |= v;
  }
}

}  // namespace

BinVec BinVec::rotated(std::size_t amount) const {
  BinVec out(dim_);
  if (dim_ == 0) return out;
  amount %= dim_;
  if (amount == 0) return *this;
  // rot(v, s) over the D-bit field is (v << s) | (v >> (D - s)): the low
  // D - s bits shift up, the top s bits wrap to the bottom. Both halves are
  // word-level funnel shifts, so the whole rotation is O(D/64) — it sits on
  // the SequenceEncoder path, which makes it hot for streaming workloads.
  // The tail-bits-zero invariant on `words()` makes the wrapped half exact.
  or_shifted_left(out.mutable_words(), words(), amount);
  or_shifted_right(out.mutable_words(), words(), dim_ - amount);
  out.mask_tail();
  return out;
}

void BinVec::mask_tail() noexcept {
  const std::size_t tail = dim_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= util::low_mask(tail);
  }
}

std::size_t hamming(const BinVec& a, const BinVec& b) noexcept {
  assert(a.dimension() == b.dimension());
  return kernels::hamming(a.words().data(), b.words().data(),
                          a.words().size());
}

double similarity(const BinVec& a, const BinVec& b) noexcept {
  if (a.dimension() == 0) return 0.0;
  return 1.0 - static_cast<double>(hamming(a, b)) /
                   static_cast<double>(a.dimension());
}

BinVec bind(const BinVec& a, const BinVec& b) {
  BinVec out = a;
  out.bind(b);
  return out;
}

std::size_t hamming_range(const BinVec& a, const BinVec& b, std::size_t begin,
                          std::size_t end) noexcept {
  assert(a.dimension() == b.dimension());
  assert(begin <= end && end <= a.dimension());
  return hamming_range(a.words(), b.words(), begin, end);
}

}  // namespace robusthd::hv
