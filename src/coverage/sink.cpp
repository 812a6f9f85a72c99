#include "coverage/sink.hpp"

#include <algorithm>
#include <cmath>

namespace cftcg::coverage {

void MarginRecorder::Reset(const CoverageSpec& spec) {
  offset_.clear();
  int total = 0;
  for (const auto& d : spec.decisions()) {
    offset_.push_back(total);
    total += d.num_outcomes;
  }
  dist_.assign(static_cast<std::size_t>(total), kUnreached);
}

void MarginRecorder::Record(DecisionId d, int ge_outcome, int lt_outcome, double margin) {
  if (static_cast<std::size_t>(d) >= offset_.size()) return;
  const int base = offset_[static_cast<std::size_t>(d)];
  auto& ge = dist_[static_cast<std::size_t>(base + ge_outcome)];
  auto& lt = dist_[static_cast<std::size_t>(base + lt_outcome)];
  if (margin >= 0) {
    ge = 0;
    lt = std::min(lt, margin + 1.0);  // need to go strictly below the boundary
  } else {
    lt = 0;
    ge = std::min(ge, -margin);
  }
}

double MarginRecorder::Distance(DecisionId d, int outcome) const {
  if (static_cast<std::size_t>(d) >= offset_.size()) return kUnreached;
  return dist_[static_cast<std::size_t>(offset_[static_cast<std::size_t>(d)] + outcome)];
}

void MarginRecorder::ResetRun() {
  std::fill(dist_.begin(), dist_.end(), kUnreached);
}

void MarginRecorder::MergeFrom(const std::vector<double>& dist) {
  for (std::size_t k = 0; k < dist_.size() && k < dist.size(); ++k) {
    dist_[k] = std::min(dist_[k], dist[k]);
  }
}

CoverageSink::CoverageSink(const CoverageSpec& spec) : spec_(&spec) {
  const auto slots = static_cast<std::size_t>(spec.FuzzBranchCount());
  curr_.Resize(slots);
  total_.Resize(slots);
  evals_.resize(spec.decisions().size());
  ForgetKnownEvals();
}

void CoverageSink::MergeFrom(const CoverageSink& other) {
  total_.MergeAndCountNew(other.total_);
  for (std::size_t d = 0; d < evals_.size(); ++d) {
    auto& dst = evals_[d];
    for (const std::uint64_t e : other.evals_[d]) {
      if (dst.size() >= kMaxEvalsPerDecision) break;
      dst.insert(e);
    }
  }
}

void CoverageSink::ResetCampaign() {
  curr_.ClearAll();
  total_.ClearAll();
  for (auto& set : evals_) set.clear();
  ForgetKnownEvals();
}

}  // namespace cftcg::coverage
