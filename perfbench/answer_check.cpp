#include "answer_check.hpp"

#include <sstream>

namespace perfbench {

AnswerCheck::AnswerCheck(const robusthd::serve::Server& server,
                         std::span<const robusthd::hv::BinVec> queries)
    : server_(server), queries_(queries) {
  capture();
  clean_ = known_.begin()->second.model->predict_batch(queries_);
  last_version_ = newest_seen_;
  versions_.insert(newest_seen_);
}

void AnswerCheck::capture() {
  // A publication moves the model pointer and the version together under
  // the snapshot mutex, so an unchanged version around the read pins the
  // pointer to that version.
  const std::uint64_t v1 = server_.stats().model_version;
  auto model = server_.current_model();
  const std::uint64_t v2 = server_.stats().model_version;
  if (v1 == v2 || known_.empty()) {
    known_[v1] = Known{std::move(model),
                       std::vector<std::int16_t>(queries_.size(), kUnknown)};
  }
  newest_seen_ = std::max(newest_seen_, v2);
  while (known_.size() > 1 && known_.begin()->first + kHistory < newest_seen_) {
    verify(known_.begin()->second);
    known_.erase(known_.begin());
  }
}

void AnswerCheck::verify(const Known& known) {
  for (std::size_t q = 0; q < known.answers.size(); ++q) {
    if (known.answers[q] == kUnknown) continue;
    if (known.model->predict(queries_[q]) != known.answers[q]) {
      ++summary_.mismatches;
    }
  }
}

void AnswerCheck::finish() {
  for (const auto& [version, known] : known_) verify(known);
  known_.clear();
}

void AnswerCheck::note(std::size_t query, int predicted,
                       std::uint64_t version) {
  ++summary_.answers;
  if (predicted != clean_[query]) ++summary_.differ_from_clean;
  if (version != last_version_) {
    versions_.insert(version);
    last_version_ = version;
  }
  if (version > newest_seen_) {
    newest_seen_ = version;
    capture();
  }
  const auto it = known_.find(version);
  if (it == known_.end()) {
    ++summary_.unchecked;
    return;
  }
  std::int16_t& first = it->second.answers[query];
  if (first == kUnknown) {
    first = static_cast<std::int16_t>(predicted);
  } else if (predicted != first) {
    ++summary_.mismatches;
  }
}

AnswerCheck::Summary AnswerCheck::summary() const {
  Summary s = summary_;
  s.versions = versions_.size();
  return s;
}

std::string check_line(const AnswerCheck::Summary& s, bool ok) {
  std::ostringstream out;
  out << "check: every answer vs HdcModel::predict on the snapshot that "
         "answered: "
      << (ok ? "ok" : "FAILED") << " (answers=" << s.answers
      << " mismatches=" << s.mismatches << " unchecked=" << s.unchecked
      << " versions=" << s.versions
      << " differ_from_clean_model=" << s.differ_from_clean << ")";
  return out.str();
}

}  // namespace perfbench
