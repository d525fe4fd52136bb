#pragma once
// Sequence (n-gram) encoding — the temporal side of hyperdimensional
// computing. The paper's benchmarks include inherently temporal data (UCI
// HAR, PAMAP are accelerometer streams); n-gram encoding is the standard
// HDC way to fold order into a hypervector: an n-gram is the binding of
// its symbols under increasing rotation, and a sequence is the bundle of
// its sliding n-grams:
//
//   G(t) = ρ^{n-1}(S[t]) ⊕ ρ^{n-2}(S[t+1]) ⊕ ... ⊕ S[t+n-1]
//   H    = majority( G(0), G(1), ... )
//
// Rotation ρ makes binding order-sensitive (ρ(a)⊕b ≠ ρ(b)⊕a), which is
// exactly what distinguishes "ab" from "ba".

#include <cstdint>
#include <span>
#include <vector>

#include "robusthd/hv/binvec.hpp"

namespace robusthd::hv {

/// Encodes sequences of discrete symbols into hypervectors.
class SequenceEncoder {
 public:
  struct Config {
    std::size_t dimension = 10000;
    std::size_t ngram = 3;
    std::uint64_t seed = 0x5e9;
  };

  /// `alphabet` distinct symbols, each assigned an i.i.d. random code.
  SequenceEncoder(std::size_t alphabet, const Config& config);

  std::size_t dimension() const noexcept { return dim_; }
  std::size_t alphabet_size() const noexcept { return symbols_.size(); }
  std::size_t ngram() const noexcept { return n_; }

  const BinVec& symbol(std::size_t s) const noexcept { return symbols_[s]; }

  /// Hypervector of one n-gram starting at `window[0]` (window.size() must
  /// be exactly ngram()).
  BinVec encode_ngram(std::span<const std::size_t> window) const;

  /// Bundle of all sliding n-grams of the sequence. Sequences shorter than
  /// n are encoded as a single (right-aligned) partial gram.
  /// The n-grams are all built before one kernels::majority call, so
  /// memory grows with the sequence: O(L * D) bits for L symbols, e.g.
  /// about 1.25 GB for a million symbols at D = 10,000.
  BinVec encode(std::span<const std::size_t> sequence) const;

 private:
  std::size_t dim_;
  std::size_t n_;
  std::vector<BinVec> symbols_;
  /// symbols pre-rotated by each position 0..n-1: rotated_[p * A + s].
  std::vector<BinVec> rotated_;
  BinVec tie_break_;
};

}  // namespace robusthd::hv
