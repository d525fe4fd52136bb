#include "robusthd/serve/trust_gate.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "robusthd/kernels/kernels.hpp"

namespace robusthd::serve {

TrustGate::TrustGate(const TrustGateConfig& config, std::size_t num_classes,
                     std::size_t dimension,
                     std::span<const hv::BinVec> canaries,
                     std::span<const int> canary_labels,
                     util::MetricsRegistry& metrics)
    : config_(config),
      dim_(dimension),
      centroids_(num_classes),
      class_counts_(num_classes),
      metrics_(metrics) {
  if (config_.margin_sigma > 0.0 && dimension > 0) {
    margin_floor_ = config_.margin_sigma * std::sqrt(2.0) * 0.5 /
                    std::sqrt(static_cast<double>(dimension));
  }

  // Bit-majority centroid per class over its canaries. The centroid is a
  // denoised exemplar of what the class's queries look like — for HDC
  // encodings the majority of a handful of members already sits close to
  // the class prototype, chunk by chunk. A tie (even member count) stays
  // 0, as no tie-break is passed.
  const std::size_t n = std::min(canaries.size(), canary_labels.size());
  std::vector<const std::uint64_t*> members;
  for (std::size_t c = 0; c < num_classes; ++c) {
    members.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (canary_labels[i] == static_cast<int>(c) &&
          canaries[i].dimension() == dimension) {
        members.push_back(canaries[i].words().data());
      }
    }
    // No members: the centroid stays empty and the check is skipped.
    if (members.empty()) continue;
    centroids_[c] = hv::BinVec(dimension);
    kernels::majority(members.data(), members.size(), dimension, nullptr,
                      centroids_[c].mutable_words().data());
  }
}

bool TrustGate::rate_admit(std::size_t cls) noexcept {
  const std::size_t window = config_.rate_window;
  if (window == 0 || class_counts_.empty()) return true;
  const auto total =
      window_total_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (total >= window) {
    auto expected = total;
    if (window_total_.compare_exchange_strong(expected, 0,
                                              std::memory_order_relaxed)) {
      for (auto& count : class_counts_) {
        count.store(0, std::memory_order_relaxed);
      }
    }
  }
  const auto fair = static_cast<std::size_t>(
      config_.fair_share_factor * static_cast<double>(window) /
      static_cast<double>(class_counts_.size()));
  const std::size_t cap = std::max(config_.min_class_share, fair);
  return class_counts_[cls].fetch_add(1, std::memory_order_relaxed) < cap;
}

bool TrustGate::canary_agrees(const hv::BinVec& query,
                              std::size_t cls) const noexcept {
  if (config_.alien_sigma <= 0.0 || config_.chunks == 0) return true;
  const auto& centroid = centroids_[cls];
  if (centroid.empty()) return true;
  const std::size_t m = std::min(config_.chunks, dim_);

  // First pass: per-chunk agreement, plus the query-wide sum for the
  // relative criterion. hamming_range over a chunk is a handful of word
  // XOR/popcounts, so two passes beat a heap allocation on the hot path.
  double sum = 0.0;
  const auto chunk_agreement = [&](std::size_t c, std::size_t& width) {
    const std::size_t begin = c * dim_ / m;
    const std::size_t end = (c + 1) * dim_ / m;
    width = end - begin;
    if (width == 0) return 1.0;
    const auto distance = hv::hamming_range(query, centroid, begin, end);
    return 1.0 - static_cast<double>(distance) / static_cast<double>(width);
  };
  std::size_t counted = 0;
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t width = 0;
    const double agreement = chunk_agreement(c, width);
    if (width == 0) continue;
    sum += agreement;
    ++counted;
  }
  if (counted == 0) return true;

  std::size_t aliens = 0;
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t width = 0;
    const double agreement = chunk_agreement(c, width);
    if (width == 0) continue;
    const double absolute_floor =
        0.5 + config_.alien_sigma * 0.5 / std::sqrt(static_cast<double>(width));
    bool alien = agreement < absolute_floor;
    if (!alien && config_.relative_gap > 0.0 && counted > 1) {
      // Mean of the *other* chunks, so the deficit under test does not
      // drag its own baseline down.
      const double others = (sum - agreement) / static_cast<double>(counted - 1);
      alien = agreement < others - config_.relative_gap;
    }
    if (alien && ++aliens >= config_.max_alien_chunks) {
      return false;
    }
  }
  return true;
}

TrustGate::Verdict TrustGate::check(const hv::BinVec& query, int predicted,
                                    double margin) noexcept {
  checked_.add();
  Verdict verdict;
  if (predicted < 0 ||
      static_cast<std::size_t>(predicted) >= centroids_.size()) {
    return verdict;  // malformed prediction: nothing to check against
  }
  const auto cls = static_cast<std::size_t>(predicted);

  bool ok = true;
  if (margin < margin_floor_) {
    margin_rejects_.add();
    ok = false;
  }
  if (!canary_agrees(query, cls)) {
    verdict.suspect = true;
    poisoned_offers_.add();
    if (config_.enforce) ok = false;
  }
  // Fair-share admission runs last and only for offers that would still
  // enter the ring — an enforced margin/canary reject must not consume
  // the class's window budget.
  if (ok || !config_.enforce) {
    if (!rate_admit(cls)) {
      rate_rejects_.add();
      ok = false;
    }
  }

  verdict.accept = config_.enforce ? ok : true;
  if (!verdict.accept) {
    gate_rejects_.add();
  }
  return verdict;
}

}  // namespace robusthd::serve
