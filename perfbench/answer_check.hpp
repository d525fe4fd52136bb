#pragma once
// Exact answer check for the workloads that serve pre-encoded queries:
// every answer must equal HdcModel::predict on the model snapshot that
// produced it.
//
// A server with recovery on may publish repaired snapshots while it
// serves, even when nothing damaged its model (the scrubber's repairs on
// a clean model), and an answer from a repaired snapshot can differ from
// the clean model's. So the check follows the version each answer
// carries: it captures a snapshot the first time an answer shows its
// version and compares inline, with each snapshot's answers computed once
// per query. Answers that differ from the clean model are counted apart;
// they are not check failures.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "robusthd/hv/binvec.hpp"
#include "robusthd/model/hdc_model.hpp"
#include "robusthd/serve/server.hpp"

namespace perfbench {

class AnswerCheck {
 public:
  /// Captures the server's current snapshot, the clean model, and its
  /// answer to every query.
  AnswerCheck(const robusthd::serve::Server& server,
              std::span<const robusthd::hv::BinVec> queries);

  /// Records one answer. Generator thread only.
  void note(std::size_t query, int predicted, std::uint64_t version);

  /// Compares every recorded answer with HdcModel::predict on its
  /// snapshot. Call once, after the window.
  void finish();

  struct Summary {
    std::uint64_t answers = 0;
    /// Answers found inconsistent with predict() on the answering snapshot
    /// (checked against the first answer per query and snapshot, which is
    /// itself checked in finish()); nonzero whenever some answer was wrong.
    std::uint64_t mismatches = 0;
    /// Answers from a snapshot superseded before it could be captured, or
    /// dropped from the check's short history of snapshots.
    std::uint64_t unchecked = 0;
    std::uint64_t differ_from_clean = 0;
    std::size_t versions = 0;  ///< snapshot versions seen in answers
  };
  Summary summary() const;

 private:
  /// Snapshots kept besides the newest; memory stays flat however many
  /// the scrubber publishes. An older snapshot is verified when it is
  /// dropped, which is the only predict work inside the window.
  static constexpr std::uint64_t kHistory = 16;
  static constexpr std::int16_t kUnknown = -2;

  struct Known {
    std::shared_ptr<const robusthd::model::HdcModel> model;
    std::vector<std::int16_t> answers;  ///< first answer per query, or kUnknown
  };
  void capture();
  /// Counts the recorded answers of `known` that predict() disagrees with.
  void verify(const Known& known);

  const robusthd::serve::Server& server_;
  std::span<const robusthd::hv::BinVec> queries_;
  std::vector<int> clean_;
  std::map<std::uint64_t, Known> known_;
  std::uint64_t newest_seen_ = 0;
  std::uint64_t last_version_ = 0;
  std::set<std::uint64_t> versions_;
  Summary summary_;
};

/// The report line of a check.
std::string check_line(const AnswerCheck::Summary& summary, bool ok);

}  // namespace perfbench
