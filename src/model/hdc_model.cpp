#include "robusthd/model/hdc_model.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "robusthd/kernels/kernels.hpp"
#include "robusthd/util/parallel.hpp"
#include "robusthd/util/rng.hpp"

namespace robusthd::model {

namespace {

/// Nearest and second-nearest class by Hamming distance against binary
/// (sign) snapshots of the accumulators — keeps retraining word-parallel
/// instead of per-dimension.
struct NearestTwo {
  int best = 0;
  int second = -1;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  std::size_t second_distance = std::numeric_limits<std::size_t>::max();
};

/// Scans a row of per-class distances; tie-breaking: the lowest index
/// wins.
NearestTwo nearest_two(const std::uint32_t* distances, std::size_t classes) {
  NearestTwo out;
  for (std::size_t c = 0; c < classes; ++c) {
    const std::size_t d = distances[c];
    if (d < out.best_distance) {
      out.second_distance = out.best_distance;
      out.second = out.best;
      out.best_distance = d;
      out.best = static_cast<int>(c);
    } else if (d < out.second_distance) {
      out.second_distance = d;
      out.second = static_cast<int>(c);
    }
  }
  return out;
}

/// The stored precision, checked before anything is allocated: a model
/// holds 1 to HdcModel::kMaxPrecisionBits planes per class.
unsigned checked_precision(unsigned bits) {
  if (bits < 1 || bits > HdcModel::kMaxPrecisionBits) {
    throw std::invalid_argument(
        "precision_bits must be 1.." +
        std::to_string(HdcModel::kMaxPrecisionBits) + ", got " +
        std::to_string(bits));
  }
  return bits;
}

/// train()'s inputs, checked before anything is indexed by label or read
/// past the first sample's words.
void check_training_set(std::span<const hv::BinVec> encoded,
                        std::span<const int> labels,
                        std::size_t num_classes) {
  if (encoded.size() != labels.size()) {
    throw std::invalid_argument(
        "train: " + std::to_string(encoded.size()) + " samples but " +
        std::to_string(labels.size()) + " labels");
  }
  if (encoded.empty()) throw std::invalid_argument("train: no samples");
  const std::size_t dim = encoded[0].dimension();
  for (const auto& sample : encoded) {
    if (sample.dimension() == 0 || sample.dimension() != dim) {
      throw std::invalid_argument(
          "train: samples must share one nonzero dimension");
    }
  }
  for (const int label : labels) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes) {
      throw std::invalid_argument("train: label " + std::to_string(label) +
                                  " outside [0, " +
                                  std::to_string(num_classes) + ")");
    }
  }
}

}  // namespace

HdcModel::HdcModel(std::size_t num_classes, std::size_t dimension,
                   unsigned precision_bits)
    : precision_bits_(checked_precision(precision_bits)),
      arena_(num_classes * precision_bits, dimension) {}

HdcModel HdcModel::train(std::span<const hv::BinVec> encoded,
                         std::span<const int> labels,
                         std::size_t num_classes, const HdcConfig& config) {
  check_training_set(encoded, labels, num_classes);
  const std::size_t dim = encoded[0].dimension();
  // Built first, so a precision the model cannot store fails before any
  // training work.
  HdcModel model(num_classes, dim, config.precision_bits);

  // The samples of each class in input order: class c's are
  // order[first[c]] .. order[first[c + 1] - 1].
  std::vector<std::size_t> first(num_classes + 1, 0);
  for (const int label : labels) ++first[static_cast<std::size_t>(label) + 1];
  for (std::size_t c = 0; c < num_classes; ++c) first[c + 1] += first[c];
  std::vector<std::size_t> order(encoded.size());
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      order[next[static_cast<std::size_t>(labels[i])]++] = i;
    }
  }

  // The sign snapshots retraining scores against, one arena row per class,
  // so a block of samples is scored in one kernel pass. A 1-bit model's
  // own arena holds them: each is its class's counters' sign, refreshed
  // after every update, so they are its planes when training ends. A
  // multi-bit model keeps them beside its arena.
  mem::PlaneArena multi_bit_signs;
  if (model.precision_bits_ > 1) {
    multi_bit_signs = mem::PlaneArena(num_classes, dim);
  }
  mem::PlaneArena& signs =
      model.precision_bits_ == 1 ? model.arena_ : multi_bit_signs;

  // Pass 1: each class's sign snapshot is the per-bit majority of its
  // samples, ties at 0, which is the sign of their bipolar sum. No class
  // has counters yet.
  std::vector<const std::uint64_t*> rows;
  for (std::size_t c = 0; c < num_classes; ++c) {
    rows.clear();
    for (std::size_t r = first[c]; r < first[c + 1]; ++r) {
      rows.push_back(encoded[order[r]].words().data());
    }
    kernels::majority(rows.data(), rows.size(), dim, nullptr, signs.plane(c));
  }

  // A class's int32 counters are built when retraining first updates it,
  // or when a multi-bit deploy quantises them: the bipolar sum of its
  // samples, as bundling them up front would have left it, since nothing
  // touched the class before. An update-free training allocates none.
  std::vector<hv::CounterStore> counters(num_classes);
  const auto counts = [&](std::size_t c) {
    if (counters[c].rows() == 0) {
      counters[c] = hv::CounterStore(1, dim);
      for (std::size_t r = first[c]; r < first[c + 1]; ++r) {
        counters[c].row(0).add(encoded[order[r]]);
      }
    }
    return counters[c].row(0);
  };

  // Perceptron-style retraining: on a mistake, reinforce the true class and
  // weaken the predicted one (standard HDC practice; improves the single-
  // pass model substantially on harder tasks). Predictions run against
  // binary sign snapshots so each epoch is word-parallel; only the two
  // rows touched by a mistake have their snapshots refreshed, in place.
  //
  // The samples go in blocks of kRetrainBlock. A batched block is first
  // scored against every snapshot in one arena pass, kGroup queries per
  // kernel call, the groups spread over threads once the pass holds
  // kSpreadWords word pairs (about 100 us on one core; a smaller pass
  // costs less than starting the threads). The walk then visits its
  // samples in order and rescores only the classes an earlier update in
  // the block changed: every other snapshot is the one the pass read, so
  // each sample sees exactly the distances scoring it alone would. The
  // pass pays only while updates leave most classes alone, so a block is
  // batched only when the one before it changed fewer than half the
  // classes (a training's first block always is); otherwise each sample
  // is scored against every class as it comes.
  constexpr std::size_t kGroup = 16;
  constexpr std::size_t kSpreadWords = std::size_t{1} << 20;
  const std::size_t words = util::words_for_bits(dim);
  const kernels::PlaneSet snapshots = signs.view();
  std::vector<const std::uint64_t*> queries(
      std::min(kRetrainBlock, encoded.size()));
  std::vector<std::uint32_t> distances(queries.size() * num_classes);
  std::vector<std::size_t> changed;  // classes updated in this block
  bool batch = true;

  const auto min_margin = static_cast<std::size_t>(
      config.retrain_margin * static_cast<double>(dim));
  for (std::size_t epoch = 0; epoch < config.retrain_epochs; ++epoch) {
    std::size_t updates = 0;
    for (std::size_t begin = 0; begin < encoded.size();
         begin += kRetrainBlock) {
      const std::size_t n = std::min(kRetrainBlock, encoded.size() - begin);
      const bool batched = batch;
      if (batched) {
        for (std::size_t i = 0; i < n; ++i) {
          queries[i] = encoded[begin + i].words().data();
        }
        const bool spread = n * num_classes * words >= kSpreadWords;
        util::parallel_for(
            (n + kGroup - 1) / kGroup,
            [&](std::size_t g) {
              const std::size_t q = g * kGroup;
              kernels::hamming_matrix_arena(
                  queries.data() + q, std::min(kGroup, n - q), snapshots,
                  distances.data() + q * num_classes);
            },
            spread ? 0 : 1);
      }
      for (std::size_t i = begin; i < begin + n; ++i) {
        std::uint32_t* row = distances.data() + (i - begin) * num_classes;
        const std::uint64_t* query = encoded[i].words().data();
        const auto rescore = [&](std::size_t c) {
          row[c] = static_cast<std::uint32_t>(
              kernels::hamming(query, signs.plane(c), words));
        };
        if (batched) {
          for (const std::size_t c : changed) rescore(c);
        } else {
          for (std::size_t c = 0; c < num_classes; ++c) rescore(c);
        }
        const int truth = labels[i];
        const auto nearest = nearest_two(row, num_classes);
        const bool wrong = nearest.best != truth;
        const bool thin_margin =
            !wrong && nearest.second_distance - nearest.best_distance <
                          min_margin;
        if (!wrong && !thin_margin) continue;
        const auto update = [&](std::size_t c, std::int32_t weight) {
          const auto acc = counts(c);
          acc.add(encoded[i], weight);
          acc.sign_into(signs.plane(c));
          if (std::ranges::find(changed, c) == changed.end()) {
            changed.push_back(c);
          }
        };
        update(static_cast<std::size_t>(truth), +1);
        const int rival = wrong ? nearest.best : nearest.second;
        if (rival >= 0) update(static_cast<std::size_t>(rival), -1);
        ++updates;
      }
      batch = 2 * changed.size() < num_classes;
      changed.clear();
    }
    if (updates == 0) break;
  }

  // A 1-bit model's planes are the snapshots already.
  if (model.precision_bits_ > 1) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      counts(c);  // builds them for a class retraining never updated
      model.deploy_class(c, std::as_const(counters[c]).row(0));
    }
  }
  return model;
}

HdcModel HdcModel::from_accumulators(const hv::CounterStore& counters,
                                     unsigned precision_bits) {
  assert(counters.rows() > 0);
  HdcModel model(counters.rows(), counters.dimension(), precision_bits);
  for (std::size_t c = 0; c < counters.rows(); ++c) {
    model.deploy_class(c, counters.row(c));
  }
  return model;
}

void HdcModel::deploy_class(std::size_t cls,
                            hv::ConstSignedAccumulator counts) {
  const auto planes = counts.quantize_planes(precision_bits_);
  for (unsigned p = 0; p < precision_bits_; ++p) {
    arena_.store_plane(row(cls, p), planes[p]);
  }
}

HdcModel HdcModel::from_planes(std::span<const ClassVector> classes,
                               unsigned precision_bits) {
  if (classes.empty()) {
    throw std::invalid_argument("from_planes: no classes");
  }
  const std::size_t dim =
      classes[0].planes.empty() ? 0 : classes[0].planes[0].dimension();
  for (const auto& cls : classes) {
    if (cls.planes.empty()) {
      throw std::invalid_argument("from_planes: a class has no planes");
    }
    if (cls.planes.size() != precision_bits) {
      throw std::invalid_argument(
          "from_planes: plane count " + std::to_string(cls.planes.size()) +
          " differs from precision_bits " + std::to_string(precision_bits));
    }
    for (const auto& plane : cls.planes) {
      if (plane.dimension() == 0 || plane.dimension() != dim) {
        throw std::invalid_argument(
            "from_planes: planes must share one nonzero dimension");
      }
    }
  }
  HdcModel model(classes.size(), dim, precision_bits);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (unsigned p = 0; p < precision_bits; ++p) {
      model.arena_.store_plane(model.row(c, p), classes[c].planes[p]);
    }
  }
  return model;
}

std::vector<double> HdcModel::scores(const hv::BinVec& query) const {
  return chunk_scores(query, 0, dimension());
}

void HdcModel::chunk_scores_into(const hv::BinVec& query, std::size_t begin,
                                 std::size_t end, double* out) const {
  const std::size_t k = num_classes();
  const std::size_t width = end - begin;
  if (width == 0) {
    std::fill(out, out + k, 0.0);
    return;
  }
  const double denom = static_cast<double>(width) *
                       static_cast<double>((1u << precision_bits_) - 1);
  for (std::size_t c = 0; c < k; ++c) {
    double score = 0.0;
    for (std::size_t p = 0; p < precision_bits_; ++p) {
      const std::size_t matches =
          width - hv::hamming_range(query.words(), plane_words(c, p), begin,
                                    end);
      score += static_cast<double>(1u << p) * static_cast<double>(matches);
    }
    out[c] = score / denom;
  }
}

std::vector<double> HdcModel::chunk_scores(const hv::BinVec& query,
                                           std::size_t begin,
                                           std::size_t end) const {
  std::vector<double> out(num_classes(), 0.0);
  chunk_scores_into(query, begin, end, out.data());
  return out;
}

void HdcModel::chunk_scores_all(const hv::BinVec& query, std::size_t chunks,
                                std::vector<double>& out) const {
  const std::size_t k = num_classes();
  const std::size_t dim = dimension();
  out.resize(chunks * k);
  for (std::size_t c = 0; c < chunks; ++c) {
    // Same partition as RecoveryEngine::chunk_range.
    const std::size_t begin = c * dim / chunks;
    const std::size_t end = (c + 1) * dim / chunks;
    chunk_scores_into(query, begin, end, out.data() + c * k);
  }
}

void HdcModel::scores_batch(std::span<const hv::BinVec* const> queries,
                            ScoreWorkspace& ws, const std::uint64_t* mask,
                            std::size_t kept_dims) const {
  const std::size_t q = queries.size();
  ws.scores.resize(q * num_classes());
  if (q == 0 || num_classes() == 0) return;
  if (mask == nullptr) {
    kept_dims = dimension();
  } else if (kept_dims == 0) {
    std::fill(ws.scores.begin(), ws.scores.end(), 0.0);
    return;
  }
  ws.query_ptrs.resize(q);
  for (std::size_t i = 0; i < q; ++i) {
    ws.query_ptrs[i] = queries[i]->words().data();
  }
  ws.distances.resize(q * arena_.num_planes());
  // One tiled pass over the arena scores the whole batch; row
  // c * planes + p of the arena is column c * planes + p of the matrix.
  kernels::hamming_matrix_arena(ws.query_ptrs.data(), q, arena_.view(), mask,
                                ws.distances.data());
  // Plane-weighted combination — operation order matches chunk_scores_into
  // exactly, so the scores are bit-identical to the per-query path (and an
  // all-ones mask reproduces the unmasked scores).
  const std::size_t k = num_classes();
  const std::size_t planes = precision_bits_;
  const double denom = static_cast<double>(kept_dims) *
                       static_cast<double>((1u << precision_bits_) - 1);
  for (std::size_t i = 0; i < q; ++i) {
    const std::uint32_t* distances = ws.distances.data() + i * k * planes;
    double* out = ws.scores.data() + i * k;
    for (std::size_t c = 0; c < k; ++c) {
      double score = 0.0;
      for (std::size_t p = 0; p < planes; ++p) {
        const std::size_t matches = kept_dims - distances[c * planes + p];
        score += static_cast<double>(1u << p) * static_cast<double>(matches);
      }
      out[c] = score / denom;
    }
  }
}

int HdcModel::predict(const hv::BinVec& query) const {
  const auto s = scores(query);
  return static_cast<int>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

std::vector<int> HdcModel::predict_batch(std::span<const hv::BinVec> queries,
                                         std::size_t max_threads) const {
  std::vector<int> out(queries.size());
  const std::size_t k = num_classes();
  // Queries are scored in blocks through the arena kernel; the block
  // argmax matches predict()'s max_element (first maximum wins), so
  // results stay bit-identical to the serial per-query loop regardless of
  // block size or thread count. The tile loop lives inside the kernel, so
  // one call streams each plane tile from memory once for the whole block.
  constexpr std::size_t kBlock = 256;
  const std::size_t blocks = (queries.size() + kBlock - 1) / kBlock;
  util::parallel_for(
      blocks,
      [&](std::size_t b) {
        thread_local ScoreWorkspace ws;
        const std::size_t begin = b * kBlock;
        const std::size_t end = std::min(begin + kBlock, queries.size());
        thread_local std::vector<const hv::BinVec*> block_queries;
        block_queries.resize(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          block_queries[i - begin] = &queries[i];
        }
        scores_batch(block_queries, ws);
        for (std::size_t i = begin; i < end; ++i) {
          const double* row = ws.scores.data() + (i - begin) * k;
          out[i] = static_cast<int>(std::max_element(row, row + k) - row);
        }
      },
      max_threads);
  return out;
}

double HdcModel::evaluate(std::span<const hv::BinVec> queries,
                          std::span<const int> labels) const {
  if (queries.empty()) return 0.0;
  const auto predicted = predict_batch(queries);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    correct += (predicted[i] == labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(queries.size());
}

std::vector<fault::MemoryRegion> HdcModel::memory_regions() {
  // Writable views of the arena rows' live words, class-major: a fault
  // campaign lands in the one store that scoring reads.
  std::vector<fault::MemoryRegion> regions;
  regions.reserve(arena_.num_planes());
  for (std::size_t c = 0; c < num_classes(); ++c) {
    for (std::size_t p = 0; p < precision_bits_; ++p) {
      regions.push_back(fault::MemoryRegion{
          std::as_writable_bytes(class_vector(c).planes[p].mutable_words()),
          1, "class" + std::to_string(c) + "/plane" + std::to_string(p)});
    }
  }
  return regions;
}

}  // namespace robusthd::model
