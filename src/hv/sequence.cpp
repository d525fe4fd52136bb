#include "robusthd/hv/sequence.hpp"

#include <cassert>
#include <vector>

#include "robusthd/kernels/kernels.hpp"

namespace robusthd::hv {

SequenceEncoder::SequenceEncoder(std::size_t alphabet, const Config& config)
    : dim_(config.dimension), n_(std::max<std::size_t>(config.ngram, 1)) {
  util::Xoshiro256 rng(config.seed);
  symbols_.reserve(alphabet);
  for (std::size_t s = 0; s < alphabet; ++s) {
    symbols_.push_back(BinVec::random(dim_, rng));
  }
  // Pre-rotate every symbol by every in-gram position (rotation is the
  // slow op; n-gram assembly then reduces to XORs of cached vectors).
  rotated_.reserve(n_ * alphabet);
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t amount = n_ - 1 - p;
    for (std::size_t s = 0; s < alphabet; ++s) {
      rotated_.push_back(symbols_[s].rotated(amount));
    }
  }
  tie_break_ = BinVec::random(dim_, rng);
}

BinVec SequenceEncoder::encode_ngram(
    std::span<const std::size_t> window) const {
  assert(window.size() == n_);
  BinVec gram = rotated_[0 * symbols_.size() + window[0]];
  for (std::size_t p = 1; p < n_; ++p) {
    gram.bind(rotated_[p * symbols_.size() + window[p]]);
  }
  return gram;
}

BinVec SequenceEncoder::encode(std::span<const std::size_t> sequence) const {
  if (sequence.empty()) return BinVec(dim_);
  if (sequence.size() < n_) {
    // Partial gram: bind what we have at the rightmost positions.
    BinVec gram(dim_);
    bool first = true;
    const std::size_t offset = n_ - sequence.size();
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const auto& code = rotated_[(offset + i) * symbols_.size() + sequence[i]];
      if (first) {
        gram = code;
        first = false;
      } else {
        gram.bind(code);
      }
    }
    return gram;
  }
  std::vector<BinVec> grams;
  std::vector<const std::uint64_t*> rows;
  grams.reserve(sequence.size() - n_ + 1);
  for (std::size_t t = 0; t + n_ <= sequence.size(); ++t) {
    grams.push_back(encode_ngram(sequence.subspan(t, n_)));
    rows.push_back(grams.back().words().data());
  }
  BinVec out(dim_);
  kernels::majority(rows.data(), rows.size(), dim_, tie_break_.words().data(),
                    out.mutable_words().data());
  return out;
}

}  // namespace robusthd::hv
