#include "robusthd/hv/alt_encoders.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "robusthd/kernels/kernels.hpp"

namespace robusthd::hv {

ThermometerEncoder::ThermometerEncoder(std::size_t feature_count,
                                       const Config& config)
    : dim_(config.dimension),
      levels_(std::max<std::size_t>(config.levels, 2)),
      features_(feature_count) {
  util::Xoshiro256 rng(config.seed);
  codes_.reserve(feature_count * levels_);
  std::vector<std::uint32_t> order(dim_);
  for (std::size_t k = 0; k < feature_count; ++k) {
    const auto base = BinVec::random(dim_, rng);
    auto level = BinVec::random(dim_, rng);
    for (std::size_t i = 0; i < dim_; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    util::shuffle(std::span<std::uint32_t>(order), rng);
    // Walk the chain: level j flips the next slice of this feature's
    // private order, so levels are strictly monotone in Hamming distance
    // and the extremes sit ~D/2 apart. Each stored code is pre-bound.
    const std::size_t total_flips = dim_ / 2;
    std::size_t flipped = 0;
    for (std::size_t j = 0; j < levels_; ++j) {
      const std::size_t target = j * total_flips / (levels_ - 1);
      for (; flipped < target; ++flipped) level.flip(order[flipped]);
      codes_.push_back(bind(level, base));
    }
  }
  tie_break_ = BinVec::random(dim_, rng);
}

BinVec ThermometerEncoder::encode(std::span<const float> features) const {
  assert(features.size() == features_);
  std::vector<const std::uint64_t*> rows(features.size());
  const auto last = static_cast<float>(levels_ - 1);
  for (std::size_t k = 0; k < features.size(); ++k) {
    const float v = std::clamp(features[k], 0.0f, 1.0f) * last;
    const auto level = static_cast<std::size_t>(std::lround(v));
    rows[k] = codes_[k * levels_ + level].words().data();
  }
  BinVec out(dim_);
  kernels::majority(rows.data(), rows.size(), dim_, tie_break_.words().data(),
                    out.mutable_words().data());
  return out;
}

RandomProjectionEncoder::RandomProjectionEncoder(std::size_t feature_count,
                                                 const Config& config)
    : dim_(config.dimension),
      features_(feature_count),
      sparsity_(std::max<std::size_t>(config.sparsity, 1)) {
  util::Xoshiro256 rng(config.seed);
  taps_.resize(dim_ * sparsity_);
  signs_.resize(dim_ * sparsity_);
  for (std::size_t i = 0; i < taps_.size(); ++i) {
    taps_[i] = static_cast<std::uint32_t>(rng.below(features_));
    signs_[i] = rng.bernoulli(0.5) ? 1 : -1;
  }
}

BinVec RandomProjectionEncoder::encode(
    std::span<const float> features) const {
  assert(features.size() == features_);
  BinVec out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    float acc = 0.0f;
    const std::size_t base = i * sparsity_;
    for (std::size_t j = 0; j < sparsity_; ++j) {
      // Centre the inputs so an all-mid-range sample projects to zero.
      acc += static_cast<float>(signs_[base + j]) *
             (features[taps_[base + j]] - 0.5f);
    }
    out.set(i, acc > 0.0f);
  }
  return out;
}

}  // namespace robusthd::hv
