#include "robusthd/model/confidence.hpp"

#include <algorithm>
#include <cmath>

#include "robusthd/util/stats.hpp"

namespace robusthd::model {

Confidence assess(std::span<const double> similarities,
                  const ConfidenceConfig& config, std::size_t dimension) {
  Confidence c;
  if (similarities.empty()) return c;

  double top = -1.0, second = -1.0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < similarities.size(); ++i) {
    const double s = similarities[i];
    if (s > top) {
      second = top;
      top = s;
      best = i;
    } else if (s > second) {
      second = s;
    }
  }
  c.predicted = static_cast<int>(best);
  c.margin = similarities.size() > 1 ? top - second : top;

  if (similarities.size() == 1) {
    c.top_probability = 1.0;
    return c;
  }

  if (similarities.size() == 2 && dimension > 0) {
    // Two classes: the cross-class spread is just the margin, so z-scores
    // degenerate to ±1. Scale the margin by the Hamming noise floor
    // (similarity fluctuations are ~1/(2·sqrt(D))) and squash.
    const double noise = 0.5 / std::sqrt(static_cast<double>(dimension));
    const double z = c.margin / (noise * 2.0) / config.temperature;
    c.top_probability = 1.0 / (1.0 + std::exp(-z));
    return c;
  }

  // Standardise across classes, then softmax at the configured temperature.
  // Only the winner's probability is needed, and the winner holds the
  // largest z-score, so its softmax term is exp(0) = 1: the result is
  // 1 / sum_i exp((z_i - z_top) / T). Each term is computed with the same
  // operations, in the same index order, as util::softmax over the
  // z-scores, so the value is bit-identical to reading that softmax at
  // the winner — without the two temporary vectors and k divisions.
  // (Similarities lie in [-1, 1], so the argmax above is the maximum.)
  util::RunningStats stats;
  for (const auto s : similarities) stats.add(s);
  const double sd = stats.stddev() > 1e-12 ? stats.stddev() : 1e-12;
  const double mean = stats.mean();
  const double z_top = (stats.max() - mean) / sd;
  double sum = 0.0;
  for (const auto s : similarities) {
    sum += std::exp(((s - mean) / sd - z_top) / config.temperature);
  }
  c.top_probability = 1.0 / sum;
  return c;
}

}  // namespace robusthd::model
