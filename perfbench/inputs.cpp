#include "harness.hpp"
#include "robusthd/data/synthetic.hpp"
#include "robusthd/util/rng.hpp"

namespace perfbench {

namespace rhd = robusthd;

rhd::data::Split pamap_split(std::uint64_t seed, std::size_t train,
                             std::size_t test) {
  // One synthetic world for every seed: its difficulty would otherwise
  // move accuracy from seed to seed by more than any change under test.
  constexpr std::uint64_t kWorld = 0x5eed;
  const auto pool = rhd::data::make_synthetic(
      rhd::data::scaled(rhd::data::dataset_by_name("PAMAP"), train + test, 1),
      kWorld);
  const auto& all = pool.train;
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rhd::util::Xoshiro256 rng(seed);
  rhd::util::shuffle(std::span<std::size_t>(order), rng);

  const auto take = [&](std::size_t from, std::size_t count) {
    rhd::data::Dataset d;
    d.num_classes = all.num_classes;
    d.features = rhd::util::Matrix(count, all.feature_count());
    for (std::size_t i = 0; i < count; ++i) {
      const auto src = all.sample(order[from + i]);
      std::copy(src.begin(), src.end(), d.features.row(i).begin());
      d.labels.push_back(all.labels[order[from + i]]);
    }
    return d;
  };
  rhd::data::Split split;
  split.train = take(0, train);
  split.test = take(train, test);
  return split;
}

}  // namespace perfbench
