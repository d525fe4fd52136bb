#pragma once
// OnlineHD-style single-pass trainer.
//
// The paper's reference [10] (OnlineHD) trains hyperdimensional models in
// one pass with similarity-weighted updates: a sample that the current
// model already classifies confidently contributes little; a marginal or
// misclassified sample contributes strongly, and the mispredicted class is
// pushed away. This trainer provides that mode for streaming settings
// where the multi-epoch retraining of HdcModel::train is unaffordable,
// and is the natural companion of the recovery engine (both consume a
// stream, one labelled, one not).

#include <cstdint>
#include <vector>

#include "robusthd/hv/accumulator.hpp"
#include "robusthd/model/hdc_model.hpp"

namespace robusthd::model {

/// Streaming trainer over pre-encoded hypervectors.
class OnlineTrainer {
 public:
  struct Config {
    /// Update magnitudes are (1 - similarity) scaled into integer counter
    /// steps of this resolution.
    int weight_resolution = 8;
    unsigned precision_bits = 1;
  };

  OnlineTrainer(std::size_t dimension, std::size_t num_classes,
                const Config& config);
  OnlineTrainer(std::size_t dimension, std::size_t num_classes)
      : OnlineTrainer(dimension, num_classes, Config{}) {}

  std::size_t observed() const noexcept { return observed_; }
  std::size_t mistakes() const noexcept { return mistakes_; }

  /// Consumes one labelled sample; returns the model's prediction *before*
  /// the update (prequential evaluation comes for free).
  int observe(const hv::BinVec& encoded, int label);

  /// Deploys the current accumulators as a quantised model.
  HdcModel deploy() const;

 private:
  /// Nearest class of the current binary snapshots plus its similarity.
  struct Nearest {
    int cls = 0;
    double similarity = 0.0;
  };
  Nearest nearest(const hv::BinVec& query) const;

  Config config_;
  hv::CounterStore counters_;  ///< one row per class
  std::vector<hv::BinVec> signs_;  ///< binary snapshots for fast predicts
  std::size_t observed_ = 0;
  std::size_t mistakes_ = 0;
};

}  // namespace robusthd::model
