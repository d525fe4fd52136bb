#pragma once
// The hyperdimensional classifier (Section 3).
//
// Training bundles encoded hypervectors per class into signed accumulators,
// optionally refines them with perceptron-style retraining, and deploys a
// quantised model: one binary plane for the standard 1-bit model, or
// multiple weighted planes for the higher-precision variants of Table 1.
// Inference is plane-weighted Hamming similarity; for the 1-bit model this
// is exactly the paper's Hamming-distance check.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "robusthd/fault/memory.hpp"
#include "robusthd/hv/accumulator.hpp"
#include "robusthd/hv/binvec.hpp"
#include "robusthd/mem/plane_arena.hpp"
#include "robusthd/util/bitops.hpp"

namespace robusthd::model {

/// Reusable buffers for the blocked batch-scoring path (one per thread;
/// capacities persist across batches, so steady-state scoring performs no
/// allocations).
struct ScoreWorkspace {
  std::vector<const std::uint64_t*> query_ptrs;
  std::vector<std::uint32_t> distances;  ///< q x (k * planes) row-major
  std::vector<double> scores;            ///< q x k row-major
};

/// Training hyper-parameters.
struct HdcConfig {
  unsigned precision_bits = 1;     ///< deployed model precision (Table 1)
  std::size_t retrain_epochs = 10; ///< perceptron refinement passes
  /// Margin-aware retraining: also update on *correct* predictions whose
  /// Hamming margin to the runner-up is below this fraction of D. Wider
  /// margins are what buy bit-flip robustness, so this knob directly
  /// trades training time for fault tolerance.
  double retrain_margin = 0.005;
  std::uint64_t seed = 0xcafe;
};

/// One class hypervector as owned weighted binary planes (plane p carries
/// weight 2^p; 1-bit models have a single plane) — the value type models
/// are built from (from_planes). A built model stores no ClassVector: its
/// planes live in the arena and class_vector() returns views of them.
struct ClassVector {
  std::vector<hv::BinVec> planes;
};

/// One stored plane: a view of its arena row's live words (never the
/// padding). A mutable view writes straight into the row, so scoring sees
/// every write at once. Views are cheap values, valid while the model that
/// made them is alive and not reassigned to a different shape.
template <bool Mutable>
class PlaneView {
 public:
  using Word = std::conditional_t<Mutable, std::uint64_t, const std::uint64_t>;

  PlaneView(Word* words, std::size_t dimension) noexcept
      : words_(words), dim_(dimension) {}

  std::span<const std::uint64_t> words() const noexcept {
    return {words_, word_count()};
  }
  std::size_t word_count() const noexcept {
    return util::words_for_bits(dim_);
  }
  std::size_t dimension() const noexcept { return dim_; }
  bool get(std::size_t i) const noexcept { return util::get_bit(words(), i); }

  /// Copies the plane out into an owning vector.
  hv::BinVec to_binvec() const {
    hv::BinVec out(dim_);
    std::copy(words_, words_ + word_count(), out.mutable_words().begin());
    return out;
  }

  std::span<std::uint64_t> mutable_words() const noexcept
    requires Mutable
  {
    return {words_, word_count()};
  }
  void set(std::size_t i, bool v) const noexcept
    requires Mutable
  {
    util::set_bit(mutable_words(), i, v);
  }
  void flip(std::size_t i) const noexcept
    requires Mutable
  {
    util::flip_bit(mutable_words(), i);
  }
  /// Clears bits beyond dimension() in the final word (after raw writes).
  void mask_tail() const noexcept
    requires Mutable
  {
    if (dim_ % 64 != 0) words_[word_count() - 1] &= util::low_mask(dim_ % 64);
  }

 private:
  Word* words_;
  std::size_t dim_;
};

/// The planes of one class: consecutive arena rows, indexed by plane.
template <bool Mutable>
class PlaneViews {
 public:
  using Word = typename PlaneView<Mutable>::Word;

  PlaneViews(Word* first, std::size_t count, std::size_t stride_words,
             std::size_t dimension) noexcept
      : first_(first), count_(count), stride_(stride_words), dim_(dimension) {}

  std::size_t size() const noexcept { return count_; }
  PlaneView<Mutable> operator[](std::size_t p) const noexcept {
    return {first_ + p * stride_, dim_};
  }

 private:
  Word* first_;
  std::size_t count_;
  std::size_t stride_;
  std::size_t dim_;
};

/// What class_vector() returns: the class's planes, viewed in place.
template <bool Mutable>
struct ClassView {
  PlaneViews<Mutable> planes;
};

/// Trained HDC model: k class hypervectors over dimension D. All planes
/// live in one mem::PlaneArena: class c, plane p is row
/// c * precision_bits() + p. Scoring, recovery, fault injection and
/// persistence all read and write those rows, so there is no second copy
/// to keep in step.
class HdcModel {
 public:
  /// Most planes a class can have (the RHD2 format's limit too).
  static constexpr unsigned kMaxPrecisionBits = 8;
  /// Samples per retraining block: train() scores a block against every
  /// class in one arena pass, so its distance block holds at most
  /// kRetrainBlock x num_classes entries.
  static constexpr std::size_t kRetrainBlock = 256;

  HdcModel() = default;

  /// Single-pass bundling + retraining over pre-encoded training data.
  /// Each class starts as the per-bit majority of its samples
  /// (kernels::majority), which is the sign of their bundle; a class gets
  /// int32 counters only when retraining updates it or a multi-bit model
  /// quantises them. Retraining walks the samples in blocks of
  /// kRetrainBlock, scoring a block in one parallel arena pass and
  /// rescoring per sample only the classes an earlier update in the block
  /// changed, so each sample sees the distances the per-sample loop would.
  /// Throws std::invalid_argument, before training, unless there is at
  /// least one sample, labels and samples have equal lengths, every label
  /// lies in [0, num_classes), the samples share one nonzero dimension,
  /// and 1 <= config.precision_bits <= kMaxPrecisionBits.
  static HdcModel train(std::span<const hv::BinVec> encoded,
                        std::span<const int> labels, std::size_t num_classes,
                        const HdcConfig& config = {});

  /// Deploys a model directly from class counters, row c for class c
  /// (used by the online trainer and by anything that builds its own
  /// bundles). Throws std::invalid_argument unless
  /// 1 <= precision_bits <= kMaxPrecisionBits.
  static HdcModel from_accumulators(const hv::CounterStore& counters,
                                    unsigned precision_bits = 1);

  /// Rebuilds a model from deployed class planes (deserialisation). Throws
  /// std::invalid_argument unless there is at least one class, every
  /// class holds exactly `precision_bits` planes, precision_bits is at
  /// most kMaxPrecisionBits, and every plane has the same nonzero
  /// dimension.
  static HdcModel from_planes(std::span<const ClassVector> classes,
                              unsigned precision_bits);

  std::size_t num_classes() const noexcept {
    return arena_.num_planes() / precision_bits_;
  }
  std::size_t dimension() const noexcept { return arena_.dimension(); }
  unsigned precision_bits() const noexcept { return precision_bits_; }

  /// The planes of one class, viewed in their arena rows. The mutable
  /// overload's views write into the rows.
  ClassView<false> class_vector(std::size_t cls) const noexcept {
    return {{arena_.plane(row(cls, 0)), precision_bits_,
             arena_.stride_words(), arena_.dimension()}};
  }
  ClassView<true> class_vector(std::size_t cls) noexcept {
    return {{arena_.plane(row(cls, 0)), precision_bits_,
             arena_.stride_words(), arena_.dimension()}};
  }

  /// Read-only packed words of one class plane (its arena row).
  std::span<const std::uint64_t> plane_words(std::size_t cls,
                                             std::size_t plane) const noexcept {
    return {arena_.plane(row(cls, plane)), arena_.words()};
  }

  /// The plane store (geometry/diagnostics: bytes, tile width, hugepage
  /// backing). Empty only for a default-constructed model.
  const mem::PlaneArena& arena() const noexcept { return arena_; }

  /// Normalised similarity score per class, each in [0, 1]
  /// (1-bit: 1 - hamming/D).
  std::vector<double> scores(const hv::BinVec& query) const;

  /// Batched scores: one tiled pass over the arena
  /// (kernels::hamming_matrix_arena) scores every query against every class.
  /// Results land in ws.scores (row q holds scores(*queries[q])), bit-
  /// identical to the per-query path. The plane-weighted multi-precision
  /// models run through the same kernel — every plane is one more row of
  /// the distance matrix.
  ///
  /// A non-null `mask` restricts scoring to the dimensions whose bits it
  /// sets — the quarantine path of the serving runtime's degradation
  /// ladder (exclude-the-unreliable-segment scoring, in the spirit of TCAM
  /// segment masking). It must hold words_for_bits(dimension()) words with
  /// every bit at position >= dimension() clear; `kept_dims` is its
  /// popcount and becomes the normalisation denominator, so the surviving
  /// dimensions are rescaled to the same [0, 1] range and the scores stay
  /// comparable across classes. A mask that keeps nothing (kept_dims == 0)
  /// scores every class 0. With an all-ones mask (kept_dims ==
  /// dimension()) the result is bit-identical to the unmasked one. A null
  /// mask scores every dimension and ignores `kept_dims`.
  void scores_batch(std::span<const hv::BinVec* const> queries,
                    ScoreWorkspace& ws, const std::uint64_t* mask = nullptr,
                    std::size_t kept_dims = 0) const;

  /// Per-class similarity restricted to the dimensions [begin, end) — the
  /// "treat each chunk as a separate HDC model" primitive of Section 4.2.
  std::vector<double> chunk_scores(const hv::BinVec& query, std::size_t begin,
                                   std::size_t end) const;

  /// All `chunks` equal ranges at once: row c of `out` (k doubles) holds
  /// chunk_scores(query, begin_c, end_c). One call, one output buffer —
  /// the RecoveryEngine's per-observation chunk sweep without per-chunk
  /// vector churn.
  void chunk_scores_all(const hv::BinVec& query, std::size_t chunks,
                        std::vector<double>& out) const;

  /// argmax of scores().
  int predict(const hv::BinVec& query) const;

  /// Batched inference: predictions for every query, deterministically
  /// parallel over the batch (scores() is const and queries are
  /// independent, so results are bit-identical to the serial loop
  /// regardless of thread count). `max_threads` as in util::parallel_for;
  /// 1 forces the serial path. This is the const entry point the serving
  /// runtime scores model snapshots through.
  std::vector<int> predict_batch(std::span<const hv::BinVec> queries,
                                 std::size_t max_threads = 0) const;

  /// Accuracy over a pre-encoded test set.
  double evaluate(std::span<const hv::BinVec> queries,
                  std::span<const int> labels) const;

  /// The stored representation, one region per class plane (value_bits == 1:
  /// every bit is an equally weighted coordinate of a hypervector plane, so
  /// a targeted attacker has no better-than-random bit to pick).
  std::vector<fault::MemoryRegion> memory_regions();

 private:
  /// The one constructor every factory goes through; it throws
  /// std::invalid_argument for a precision outside [1, kMaxPrecisionBits].
  HdcModel(std::size_t num_classes, std::size_t dimension,
           unsigned precision_bits);

  /// Quantises one class's counters into its plane rows.
  void deploy_class(std::size_t cls, hv::ConstSignedAccumulator counts);

  std::size_t row(std::size_t cls, std::size_t plane) const noexcept {
    return cls * precision_bits_ + plane;
  }

  /// Shared scoring core: writes classes() doubles at `out`.
  void chunk_scores_into(const hv::BinVec& query, std::size_t begin,
                         std::size_t end, double* out) const;

  unsigned precision_bits_ = 1;
  /// num_classes() * precision_bits_ rows of dimension() bits; a moved-from
  /// or default model has no rows, so it reports no classes.
  mem::PlaneArena arena_;
};

}  // namespace robusthd::model
