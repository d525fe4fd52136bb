#pragma once
// Hyperdimensional associative memory.
//
// A labelled store of hypervectors with nearest-neighbour Hamming search —
// the data structure behind HDC inference (class hypervectors are the
// degenerate one-prototype-per-label case) and behind the associative-
// memory line of work the paper builds on. Supports exemplar mode (every
// insert kept) and prototype mode (inserts within a merge radius of an
// existing entry bundle into it, keeping the store compact).

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "robusthd/hv/accumulator.hpp"
#include "robusthd/hv/binvec.hpp"

namespace robusthd::hv {

/// One search hit.
struct AssocMatch {
  std::size_t slot = 0;
  int label = -1;
  std::size_t distance = std::numeric_limits<std::size_t>::max();
};

/// Labelled hypervector store with Hamming search.
class AssociativeMemory {
 public:
  struct Config {
    std::size_t dimension = 10000;
    /// Inserts whose nearest same-label entry is within this Hamming
    /// distance bundle into it instead of opening a new slot.
    /// 0 disables merging (pure exemplar store).
    std::size_t merge_radius = 0;
  };

  explicit AssociativeMemory(const Config& config) : config_(config) {}

  std::size_t size() const noexcept { return slots_.size(); }
  std::size_t dimension() const noexcept { return config_.dimension; }

  /// Inserts (or merges) a labelled hypervector; returns the slot index.
  std::size_t insert(const BinVec& vector, int label);

  /// Nearest entry by Hamming distance; empty when the store is empty.
  std::optional<AssocMatch> nearest(const BinVec& query) const;

  /// The k nearest entries, closest first.
  std::vector<AssocMatch> top_k(const BinVec& query, std::size_t k) const;

  /// Majority-label prediction over the k nearest entries (-1 if empty).
  int predict(const BinVec& query, std::size_t k = 1) const;

  /// Read access to a stored vector (prototype slots return the current
  /// majority of everything bundled into them).
  const BinVec& vector(std::size_t slot) const noexcept {
    return slots_[slot].vector;
  }
  int label(std::size_t slot) const noexcept { return slots_[slot].label; }
  /// How many inserts a slot has absorbed.
  std::size_t bundled(std::size_t slot) const noexcept {
    return slots_[slot].count;
  }

 private:
  struct Slot {
    BinVec vector;        // deployed (majority) form
    CounterStore counts;  // running bundle, one row
    int label = -1;
    std::size_t count = 0;

    explicit Slot(std::size_t dim) : vector(dim), counts(1, dim) {}
  };

  Config config_;
  std::vector<Slot> slots_;
};

}  // namespace robusthd::hv
