#pragma once
// Packed binary hypervector.
//
// The deployed RobustHD model is binary (Section 3.2: "To ensure robustness,
// we always use HDC with a binary model"), so the fundamental type stores D
// bits in 64-bit words. All hot operations — XOR binding, Hamming distance,
// permutation — are word-parallel and branch-free.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/aligned.hpp"
#include "robusthd/util/bitops.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::hv {

/// A D-dimensional binary hypervector packed into uint64 words.
///
/// Invariant: bits at positions >= dimension() in the last word are zero;
/// every mutating operation restores this so popcount-based distances never
/// see garbage tail bits.
class BinVec {
 public:
  BinVec() = default;

  /// All-zeros vector of the given dimension.
  explicit BinVec(std::size_t dimension)
      : dim_(dimension), words_(util::words_for_bits(dimension), 0) {
    assert(words_.empty() || util::is_cacheline_aligned(words_.data()));
  }

  /// I.i.d. uniform random vector — the holographic representation's
  /// building block (each bit is 1 with probability 1/2).
  static BinVec random(std::size_t dimension, util::Xoshiro256& rng);

  std::size_t dimension() const noexcept { return dim_; }
  std::size_t word_count() const noexcept { return words_.size(); }
  bool empty() const noexcept { return dim_ == 0; }

  bool get(std::size_t i) const noexcept { return util::get_bit(words(), i); }
  void set(std::size_t i, bool v) noexcept {
    util::set_bit(mutable_words(), i, v);
  }
  void flip(std::size_t i) noexcept { util::flip_bit(mutable_words(), i); }

  /// Number of set bits (SIMD-dispatched).
  std::size_t count_ones() const noexcept {
    return kernels::popcount(words_.data(), words_.size());
  }

  /// In-place XOR binding with another vector of equal dimension.
  BinVec& bind(const BinVec& other) noexcept;

  /// In-place bitwise NOT (tail bits re-zeroed).
  BinVec& invert() noexcept;

  /// Circular left rotation by `amount` bit positions (permutation op used
  /// for sequence encoding). Word-level funnel shift: O(D/64), not O(D).
  BinVec rotated(std::size_t amount) const;

  /// Read-only / mutable word views. The mutable view is what the fault
  /// injector attacks: it is the literal stored representation of the model.
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::span<std::uint64_t> mutable_words() noexcept { return words_; }

  /// Clears bits beyond dimension() in the final word. Call after writing
  /// raw words from outside (e.g. after a fault campaign on the raw bytes).
  void mask_tail() noexcept;

  bool operator==(const BinVec& other) const noexcept = default;

 private:
  std::size_t dim_ = 0;
  /// 64-byte-aligned storage: vector loads in the SIMD kernels never split
  /// a cache line — queries are scored straight from this storage.
  util::AlignedU64Vec words_;
};

/// Hamming distance between two vectors of equal dimension.
std::size_t hamming(const BinVec& a, const BinVec& b) noexcept;

/// Normalised similarity in [0, 1]: 1 - hamming/D. Random vectors score
/// ~0.5; identical vectors score 1.
double similarity(const BinVec& a, const BinVec& b) noexcept;

/// XOR binding returning a new vector.
BinVec bind(const BinVec& a, const BinVec& b);

/// Hamming distance restricted to the bit range [begin, end) — the chunk
/// primitive of the RobustHD fault detector.
std::size_t hamming_range(const BinVec& a, const BinVec& b, std::size_t begin,
                          std::size_t end) noexcept;

/// hamming_range over raw packed word spans (each at least
/// words_for_bits(end) words) — the same word/edge-mask resolution applied
/// to storage that is not a BinVec, e.g. plane rows inside a
/// mem::PlaneArena. Bit-identical to the BinVec overload on equal words.
/// The two edge words are masked and counted here, and the whole words
/// between them go to the Hamming kernel at whatever ISA the dispatcher
/// selected. The edges are counted bit-sliced, because the library's
/// baseline flags do not assume the POPCNT instruction (std::popcount
/// would call into libgcc twice), and the function is inline, so a
/// caller's per-chunk sweep overlaps that work with its kernel calls.
inline std::size_t hamming_range(std::span<const std::uint64_t> a,
                                 std::span<const std::uint64_t> b,
                                 std::size_t begin, std::size_t end) noexcept {
  assert(begin <= end);
  if (begin >= end) return 0;
  assert(util::words_for_bits(end) <= a.size());
  assert(util::words_for_bits(end) <= b.size());
  // Per-byte set-bit counts of a word, each at most 8.
  const auto byte_counts = [](std::uint64_t v) {
    v -= (v >> 1) & 0x5555555555555555ULL;
    v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
    return (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  };
  // The multiply sums the eight byte counts into the top byte.
  const auto total = [](std::uint64_t counts) {
    return static_cast<std::size_t>((counts * 0x0101010101010101ULL) >> 56);
  };
  const std::size_t first_word = begin >> 6;
  const std::size_t last_word = (end - 1) >> 6;
  const std::uint64_t first =
      (a[first_word] ^ b[first_word]) & ~util::low_mask(begin & 63);
  const std::uint64_t last_mask = util::low_mask(((end - 1) & 63) + 1);
  if (first_word == last_word) return total(byte_counts(first & last_mask));
  const std::uint64_t last = (a[last_word] ^ b[last_word]) & last_mask;
  return total(byte_counts(first) + byte_counts(last)) +
         kernels::hamming(a.data() + first_word + 1, b.data() + first_word + 1,
                          last_word - first_word - 1);
}

}  // namespace robusthd::hv
