#pragma once
// Alternative encoders (for the encoder ablation).
//
// * ThermometerEncoder — per-feature thermometer level chains: each feature
//   owns a private random flip order, so its levels form a strictly
//   monotone Hamming chain; bound to the feature's base vector and bundled
//   like the record encoder. Differences from RecordEncoder: level chains
//   are per-feature (no cross-feature level correlation).
// * RandomProjectionEncoder — h_i = sign(Σ_k w_ik · (f_k - 1/2)) with a
//   sparse ±1 projection (the classic LSH/random-indexing encoder). No
//   item memory at all; binarisation happens per output bit.

#include <cstdint>
#include <vector>

#include "robusthd/hv/encoder_base.hpp"
#include "robusthd/hv/itemmemory.hpp"

namespace robusthd::hv {

/// Thermometer (per-feature level chain) encoder.
class ThermometerEncoder final : public Encoder {
 public:
  struct Config {
    std::size_t dimension = 10000;
    std::size_t levels = 32;
    std::uint64_t seed = 0x7e4;
  };

  ThermometerEncoder(std::size_t feature_count, const Config& config);

  std::size_t dimension() const noexcept override { return dim_; }
  std::size_t feature_count() const noexcept override { return features_; }
  BinVec encode(std::span<const float> features) const override;

 private:
  std::size_t dim_;
  std::size_t levels_;
  /// Precomputed bound codes: codes_[k * levels + j] = base_k ⊕ level_{k,j}
  /// (trades ~D·n·levels/8 bytes of memory for O(1) per-feature encoding).
  std::vector<BinVec> codes_;
  std::size_t features_ = 0;
  BinVec tie_break_;
};

/// Sparse random-projection (sign) encoder.
class RandomProjectionEncoder final : public Encoder {
 public:
  struct Config {
    std::size_t dimension = 10000;
    /// Input taps per output bit.
    std::size_t sparsity = 32;
    std::uint64_t seed = 0x94a;
  };

  RandomProjectionEncoder(std::size_t feature_count, const Config& config);

  std::size_t dimension() const noexcept override { return dim_; }
  std::size_t feature_count() const noexcept override { return features_; }
  BinVec encode(std::span<const float> features) const override;

 private:
  std::size_t dim_;
  std::size_t features_;
  std::size_t sparsity_;
  /// Flattened taps: for output bit i, entries [i*sparsity, (i+1)*sparsity)
  /// hold feature indices; the matching sign lives in signs_.
  std::vector<std::uint32_t> taps_;
  std::vector<std::int8_t> signs_;
};

}  // namespace robusthd::hv
