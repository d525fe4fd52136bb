#include "robusthd/hv/assoc.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace robusthd::hv {

std::size_t AssociativeMemory::insert(const BinVec& vector, int label) {
  assert(vector.dimension() == config_.dimension);

  if (config_.merge_radius > 0) {
    // Look for the nearest same-label slot within the merge radius.
    std::size_t best = slots_.size();
    std::size_t best_distance = config_.merge_radius + 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].label != label) continue;
      const std::size_t d = hamming(slots_[i].vector, vector);
      if (d < best_distance) {
        best_distance = d;
        best = i;
      }
    }
    if (best < slots_.size()) {
      auto& slot = slots_[best];
      const auto counts = slot.counts.row(0);
      counts.add(vector);
      ++slot.count;
      counts.sign_into(slot.vector, &slot.vector);  // ties keep old bits
      return best;
    }
  }

  Slot slot(config_.dimension);
  slot.vector = vector;
  slot.counts.row(0).add(vector);
  slot.label = label;
  slot.count = 1;
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

std::optional<AssocMatch> AssociativeMemory::nearest(
    const BinVec& query) const {
  if (slots_.empty()) return std::nullopt;
  AssocMatch best;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::size_t d = hamming(slots_[i].vector, query);
    if (d < best.distance) {
      best = {i, slots_[i].label, d};
    }
  }
  return best;
}

std::vector<AssocMatch> AssociativeMemory::top_k(const BinVec& query,
                                                 std::size_t k) const {
  std::vector<AssocMatch> matches;
  matches.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    matches.push_back({i, slots_[i].label, hamming(slots_[i].vector, query)});
  }
  std::sort(matches.begin(), matches.end(),
            [](const AssocMatch& a, const AssocMatch& b) {
              return a.distance < b.distance;
            });
  if (matches.size() > k) matches.resize(k);
  return matches;
}

int AssociativeMemory::predict(const BinVec& query, std::size_t k) const {
  const auto matches = top_k(query, std::max<std::size_t>(k, 1));
  if (matches.empty()) return -1;
  std::map<int, std::size_t> votes;
  for (const auto& m : matches) ++votes[m.label];
  int best_label = matches[0].label;  // nearest breaks ties
  std::size_t best_votes = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {
      best_votes = count;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace robusthd::hv
