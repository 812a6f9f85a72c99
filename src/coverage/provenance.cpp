#include "coverage/provenance.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "coverage/report.hpp"
#include "support/strings.hpp"

namespace cftcg::coverage {

std::string_view ObjectiveKindName(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kDecisionOutcome: return "decision_outcome";
    case ObjectiveKind::kConditionTrue: return "condition_true";
    case ObjectiveKind::kConditionFalse: return "condition_false";
    case ObjectiveKind::kMcdcPair: return "mcdc_pair";
  }
  return "?";
}

ProvenanceMap::ProvenanceMap(const CoverageSpec& spec) : spec_(&spec) {
  slot_hit_.assign(static_cast<std::size_t>(spec.FuzzBranchCount()), -1);
  // MCDC objectives exist for conditions of multi-condition decisions, with
  // the same <24-condition cap ComputeReportFrom applies.
  int mcdc_total = 0;
  for (const auto& d : spec.decisions()) {
    mcdc_offset_.push_back(mcdc_total);
    mcdc_total += static_cast<int>(std::min<std::size_t>(d.conditions.size(), 24));
  }
  mcdc_hit_.assign(static_cast<std::size_t>(mcdc_total), -1);
  num_objectives_ = slot_hit_.size() + mcdc_hit_.size();
}

std::vector<std::size_t> ProvenanceMap::AttributeSlots(const DynamicBitset& total,
                                                       std::uint64_t iteration, double time_s,
                                                       std::int64_t entry_id,
                                                       std::string_view chain) {
  std::vector<std::size_t> fresh;
  const CoverageSpec& spec = *spec_;
  auto attribute = [&](int slot, ObjectiveFirstHit hit) {
    if (slot_hit_[static_cast<std::size_t>(slot)] >= 0) return;
    if (!total.Test(static_cast<std::size_t>(slot))) return;
    hit.slot = slot;
    hit.iteration = iteration;
    hit.time_s = time_s;
    hit.entry_id = entry_id;
    hit.chain = std::string(chain);
    slot_hit_[static_cast<std::size_t>(slot)] = static_cast<int>(hits_.size());
    fresh.push_back(hits_.size());
    hits_.push_back(std::move(hit));
  };
  for (const auto& d : spec.decisions()) {
    for (int k = 0; k < d.num_outcomes; ++k) {
      ObjectiveFirstHit hit;
      hit.kind = ObjectiveKind::kDecisionOutcome;
      hit.name = d.name;
      hit.decision = d.id;
      hit.outcome = k;
      attribute(spec.OutcomeSlot(d.id, k), std::move(hit));
    }
  }
  for (const auto& c : spec.conditions()) {
    ObjectiveFirstHit t;
    t.kind = ObjectiveKind::kConditionTrue;
    t.name = c.name;
    t.decision = c.decision;
    t.condition = c.id;
    attribute(spec.ConditionTrueSlot(c.id), std::move(t));
    ObjectiveFirstHit f;
    f.kind = ObjectiveKind::kConditionFalse;
    f.name = c.name;
    f.decision = c.decision;
    f.condition = c.id;
    attribute(spec.ConditionFalseSlot(c.id), std::move(f));
  }
  return fresh;
}

std::vector<std::size_t> ProvenanceMap::AttributeMcdc(
    DecisionId d, const std::unordered_set<std::uint64_t>& evals, std::uint64_t iteration,
    double time_s, std::int64_t entry_id, std::string_view chain) {
  std::vector<std::size_t> fresh;
  if (evals.empty()) return fresh;
  const Decision& decision = spec_->decision(d);
  const int base = mcdc_offset_[static_cast<std::size_t>(d)];
  const auto n = std::min<std::size_t>(decision.conditions.size(), 24);
  for (std::size_t i = 0; i < n; ++i) {
    int& state = mcdc_hit_[static_cast<std::size_t>(base) + i];
    if (state >= 0) continue;
    if (!HasIndependencePair(evals, static_cast<int>(i))) continue;
    ObjectiveFirstHit hit;
    hit.kind = ObjectiveKind::kMcdcPair;
    hit.decision = d;
    hit.condition = decision.conditions[i];
    hit.name = spec_->condition(decision.conditions[i]).name;
    hit.iteration = iteration;
    hit.time_s = time_s;
    hit.entry_id = entry_id;
    hit.chain = std::string(chain);
    state = static_cast<int>(hits_.size());
    fresh.push_back(hits_.size());
    hits_.push_back(std::move(hit));
  }
  return fresh;
}

bool ProvenanceMap::AbsorbHit(const ObjectiveFirstHit& hit) {
  int* state = nullptr;
  if (hit.kind == ObjectiveKind::kMcdcPair) {
    if (hit.decision < 0 || static_cast<std::size_t>(hit.decision) >= mcdc_offset_.size()) {
      return false;
    }
    const Decision& decision = spec_->decision(hit.decision);
    const auto n = std::min<std::size_t>(decision.conditions.size(), 24);
    const int base = mcdc_offset_[static_cast<std::size_t>(hit.decision)];
    for (std::size_t i = 0; i < n; ++i) {
      if (decision.conditions[i] == hit.condition) {
        state = &mcdc_hit_[static_cast<std::size_t>(base) + i];
        break;
      }
    }
  } else {
    if (hit.slot < 0 || static_cast<std::size_t>(hit.slot) >= slot_hit_.size()) return false;
    state = &slot_hit_[static_cast<std::size_t>(hit.slot)];
  }
  if (state == nullptr || *state >= 0) return false;
  *state = static_cast<int>(hits_.size());
  hits_.push_back(hit);
  return true;
}

std::vector<ObjectiveFirstHit> MergeFirstHits(const std::vector<const ProvenanceMap*>& workers,
                                              std::vector<std::size_t>* origin) {
  // Objective key -> best hit so far and its worker. std::map keeps key
  // order deterministic for the tie tiers of the final ordering.
  using Best = std::pair<const ObjectiveFirstHit*, std::size_t>;
  std::map<std::tuple<int, int, int, int, int>, Best> best;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (workers[w] == nullptr) continue;
    for (const ObjectiveFirstHit& h : workers[w]->hits()) {
      const auto key = std::make_tuple(static_cast<int>(h.kind), h.slot,
                                       static_cast<int>(h.decision),
                                       static_cast<int>(h.condition), h.outcome);
      const auto it = best.find(key);
      // Strict < keeps the earlier (lower-index) worker's hit on equal
      // iterations — the deterministic tie-break.
      if (it == best.end() || h.iteration < it->second.first->iteration) best[key] = {&h, w};
    }
  }
  std::vector<Best> merged;
  merged.reserve(best.size());
  for (const auto& [key, hit] : best) merged.push_back(hit);
  std::stable_sort(merged.begin(), merged.end(), [](const Best& a, const Best& b) {
    return a.first->iteration < b.first->iteration;
  });
  std::vector<ObjectiveFirstHit> out;
  out.reserve(merged.size());
  if (origin != nullptr) origin->clear();
  for (const auto& [hit, w] : merged) {
    out.push_back(*hit);
    if (origin != nullptr) origin->push_back(w);
  }
  return out;
}

namespace {

// Local minimal JSON string escape (coverage does not link cftcg_obs).
// Spec names are block paths; quotes/backslashes/control bytes are escaped
// so the output always parses back with obs::ParseJson.
std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ProvenanceMap::ToJson() const {
  std::string json = StrFormat("{\"covered\":%zu,\"total\":%zu,\"objectives\":[", hits_.size(),
                               num_objectives_);
  for (std::size_t i = 0; i < hits_.size(); ++i) {
    const ObjectiveFirstHit& h = hits_[i];
    if (i > 0) json += ',';
    json += StrFormat(
        "{\"kind\":\"%s\",\"name\":\"%s\",\"outcome\":%d,\"slot\":%d,\"iter\":%llu,"
        "\"time_s\":%.6f,\"entry\":%lld,\"chain\":\"%s\"}",
        std::string(ObjectiveKindName(h.kind)).c_str(), EscapeJson(h.name).c_str(), h.outcome,
        h.slot, static_cast<unsigned long long>(h.iteration), h.time_s,
        static_cast<long long>(h.entry_id), EscapeJson(h.chain).c_str());
  }
  json += "]}";
  return json;
}

std::vector<ResidualObjective> ResidualDiagnostics(const CoverageSpec& spec,
                                                   const DynamicBitset& total,
                                                   const MarginRecorder* margins,
                                                   const JustificationSet* justifications) {
  std::vector<ResidualObjective> out;
  for (const auto& d : spec.decisions()) {
    for (int k = 0; k < d.num_outcomes; ++k) {
      const int slot = spec.OutcomeSlot(d.id, k);
      if (total.Test(static_cast<std::size_t>(slot))) continue;
      ResidualObjective r;
      r.decision = d.id;
      r.outcome = k;
      r.name = StrFormat("%s[%d]", d.name.c_str(), k);
      r.distance = margins != nullptr ? margins->Distance(d.id, k) : MarginRecorder::kUnreached;
      if (justifications != nullptr && justifications->SlotExcluded(slot)) {
        r.justified = true;
        r.justify_reason = justifications->SlotReason(slot);
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace cftcg::coverage
