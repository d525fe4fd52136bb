#pragma once
// Record-based (ID-level) encoder: H = threshold( Σ_k  L(f_k) ⊕ B_k ).
//
// This is the encoding of Section 3.1: each feature value is quantised to a
// level hypervector, bound (XOR) to that feature position's base
// hypervector, all n bound vectors are bundled, and the bundle is majority-
// thresholded back to a binary query hypervector.

#include <memory>
#include <span>

#include "robusthd/data/dataset.hpp"
#include "robusthd/hv/accumulator.hpp"
#include "robusthd/hv/encoder_base.hpp"
#include "robusthd/hv/itemmemory.hpp"

namespace robusthd::hv {

/// Encoder configuration.
struct EncoderConfig {
  std::size_t dimension = 10000;  ///< D (paper default ~10k)
  std::size_t levels = 32;        ///< feature-value quantisation levels
  std::uint64_t seed = 0x1d1e5;   ///< item-memory seed
};

/// Stateless after construction; thread-compatible (const encode).
class RecordEncoder final : public Encoder {
 public:
  RecordEncoder(std::size_t feature_count, const EncoderConfig& config);

  std::size_t dimension() const noexcept override {
    return memory_.dimension();
  }
  std::size_t feature_count() const noexcept override {
    return memory_.feature_count();
  }
  const ItemMemory& item_memory() const noexcept { return memory_; }
  /// The fixed random vector whose bit decides a dimension whose
  /// majority vote ties (even feature counts only).
  const BinVec& tie_break() const noexcept { return tie_break_; }

  /// Encodes one normalised sample (values in [0,1]) into a binary query
  /// hypervector.
  BinVec encode(std::span<const float> features) const override;

  /// Zero-allocation encode: fused bind-then-ripple-add into the
  /// workspace's counter, word-parallel majority threshold into `out`.
  /// Steady state (ws warm, out sized) allocates nothing.
  void encode_into(std::span<const float> features, BinVec& out,
                   EncodeWorkspace& ws) const override;

 private:
  ItemMemory memory_;
  BinVec tie_break_;  ///< fixed random vector breaking majority ties
};

}  // namespace robusthd::hv
