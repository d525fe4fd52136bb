#include "robusthd/model/online_trainer.hpp"

#include <cassert>
#include <cmath>

namespace robusthd::model {

OnlineTrainer::OnlineTrainer(std::size_t dimension, std::size_t num_classes,
                             const Config& config)
    : config_(config),
      counters_(num_classes, dimension),
      signs_(num_classes, hv::BinVec(dimension)) {}

OnlineTrainer::Nearest OnlineTrainer::nearest(const hv::BinVec& query) const {
  Nearest best;
  best.similarity = -1.0;
  for (std::size_t c = 0; c < signs_.size(); ++c) {
    const double s = hv::similarity(query, signs_[c]);
    if (s > best.similarity) {
      best.similarity = s;
      best.cls = static_cast<int>(c);
    }
  }
  return best;
}

int OnlineTrainer::observe(const hv::BinVec& encoded, int label) {
  assert(label >= 0 && static_cast<std::size_t>(label) < counters_.rows());
  ++observed_;

  const auto guess = nearest(encoded);
  const auto target = static_cast<std::size_t>(label);

  // OnlineHD rule: reinforcement proportional to how *unfamiliar* the
  // sample is to its own class; a wrong prediction also pushes the
  // impostor away by how familiar it wrongly looked.
  const double own_similarity = hv::similarity(encoded, signs_[target]);
  const int reinforce = static_cast<int>(std::lround(
      (1.0 - own_similarity) * config_.weight_resolution));
  if (reinforce > 0) {
    const auto own = counters_.row(target);
    own.add(encoded, reinforce);
    own.sign_into(signs_[target]);
  }

  if (guess.cls != label) {
    ++mistakes_;
    // OnlineHD's repel weight is the *unfamiliarity* of the wrongly
    // winning class, (1 - similarity): a class that barely won is pushed
    // away gently, and repeated offenders converge instead of oscillating.
    const auto wrong = static_cast<std::size_t>(guess.cls);
    const int repel = static_cast<int>(std::lround(
        (1.0 - guess.similarity) * config_.weight_resolution));
    if (repel > 0) {
      const auto impostor = counters_.row(wrong);
      impostor.add(encoded, -repel);
      impostor.sign_into(signs_[wrong]);
    }
  }
  return guess.cls;
}

HdcModel OnlineTrainer::deploy() const {
  return HdcModel::from_accumulators(counters_, config_.precision_bits);
}

}  // namespace robusthd::model
