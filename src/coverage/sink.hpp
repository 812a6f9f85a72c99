// Runtime coverage collection.
//
// The executors (VM and interpreter) report two kinds of events into a
// CoverageSink:
//   * Hit(slot)                — a fuzz-branch slot fired this iteration
//                                 (decision outcome or condition polarity);
//   * RecordEval(...)          — one evaluation of a multi-condition decision
//                                 (for masking MCDC), as a packed condition
//                                 vector + outcome.
// Numeric distance-to-flip of a decision goes to a MarginRecorder attached
// to the vm::Machine instead (the program's margin side table); the goal
// solver's guided search and the residual diagnostics consume it.
//
// `curr` is the per-model-iteration bitmap of Algorithm 1 (g_CurrCov);
// `total` is the campaign-cumulative bitmap (g_TotalCov). The fuzzing loop
// owns the merging policy; baselines use AccumulateIteration().
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "coverage/spec.hpp"
#include "support/bitset.hpp"

namespace cftcg::coverage {

/// Packs an MCDC evaluation into a single word:
/// bits 0..23 condition values, 24..47 evaluated mask, 48..55 outcome.
inline std::uint64_t PackEval(std::uint32_t values, std::uint32_t mask, int outcome) {
  return (static_cast<std::uint64_t>(values) & 0xFFFFFF) |
         ((static_cast<std::uint64_t>(mask) & 0xFFFFFF) << 24) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(outcome) & 0xFF) << 48);
}
inline std::uint32_t EvalValues(std::uint64_t e) { return static_cast<std::uint32_t>(e & 0xFFFFFF); }
inline std::uint32_t EvalMask(std::uint64_t e) {
  return static_cast<std::uint32_t>((e >> 24) & 0xFFFFFF);
}
inline int EvalOutcome(std::uint64_t e) { return static_cast<int>((e >> 48) & 0xFF); }

/// Records per-decision outcome distances for goal-directed search.
class MarginRecorder {
 public:
  void Reset(const CoverageSpec& spec);
  /// Distance bookkeeping for a two-way split inside decision `d`: `margin`
  /// >= 0 selects outcome `ge_outcome`, < 0 selects `lt_outcome`. The
  /// distance to the *other* outcome is |margin| (+1 for the >= side so the
  /// boundary itself is not counted as reached).
  void Record(DecisionId d, int ge_outcome, int lt_outcome, double margin);

  /// Best (smallest) observed distance toward outcome `k` of decision `d`
  /// since the last ResetRun(); kUnreached if never evaluated.
  [[nodiscard]] double Distance(DecisionId d, int outcome) const;
  void ResetRun();

  /// Best distance per decision outcome, in outcome-slot order (empty
  /// before Reset). Checkpoints carry this vector.
  [[nodiscard]] const std::vector<double>& distances() const { return dist_; }
  /// Folds in distances recorded against the same spec, slot by slot (the
  /// smaller wins): a lane merge, or a restore right after Reset.
  void MergeFrom(const std::vector<double>& dist);

  static constexpr double kUnreached = 1e300;

 private:
  std::vector<int> offset_;
  std::vector<double> dist_;
};

class CoverageSink {
 public:
  explicit CoverageSink(const CoverageSpec& spec);

  [[nodiscard]] const CoverageSpec& spec() const { return *spec_; }

  // -- Hot path (called by executors) -----------------------------------
  void Hit(int slot) { curr_.Set(static_cast<std::size_t>(slot)); }
  void RecordEval(DecisionId d, std::uint32_t values, std::uint32_t mask, int outcome) {
    // Most evaluations repeat the decision's previous one (69-98% per bench
    // model in a 20000-execution campaign), which is already in the set (or
    // was refused at the cap, and the set only grows), so one word compare
    // skips the hash insert.
    const std::uint64_t e = PackEval(values, mask, outcome);
    std::uint64_t& last = last_eval_[static_cast<std::size_t>(d)];
    if (e == last) return;
    last = e;
    auto& set = evals_[static_cast<std::size_t>(d)];
    if (set.size() < kMaxEvalsPerDecision) set.insert(e);
  }

  // -- Iteration control --------------------------------------------------
  /// Clears the per-iteration map (Algorithm 1 line 11).
  void BeginIteration() { curr_.ClearAll(); }
  /// Merges curr into total; returns number of newly covered slots.
  std::size_t AccumulateIteration() { return total_.MergeAndCountNew(curr_); }

  [[nodiscard]] const DynamicBitset& curr() const { return curr_; }
  [[nodiscard]] const DynamicBitset& total() const { return total_; }
  [[nodiscard]] DynamicBitset& mutable_total() { return total_; }
  [[nodiscard]] const std::vector<std::unordered_set<std::uint64_t>>& evals() const {
    return evals_;
  }

  /// Merges another sink's campaign-cumulative state into this one: ORs the
  /// total bitmap and unions the per-decision evaluation sets (capped at
  /// kMaxEvalsPerDecision like direct recording). Both sinks must share the
  /// spec. Used by the parallel engine to fold worker frontiers into the
  /// global one; `curr` is per-iteration scratch and is not touched.
  void MergeFrom(const CoverageSink& other);

  /// Restores checkpointed campaign-cumulative state: the total bitmap
  /// (as raw words for size()) and the per-decision evaluation sets. The
  /// shapes must match this sink's spec; returns false (state untouched)
  /// otherwise. `curr` is per-iteration scratch and is simply cleared.
  bool RestoreCampaign(std::vector<std::uint64_t> total_words,
                       const std::vector<std::vector<std::uint64_t>>& evals) {
    if (evals.size() != evals_.size()) return false;
    if (!total_.Restore(total_.size(), std::move(total_words))) return false;
    ForgetLastEvals();
    for (std::size_t d = 0; d < evals.size(); ++d) {
      evals_[d].clear();
      for (std::uint64_t e : evals[d]) {
        if (evals_[d].size() >= kMaxEvalsPerDecision) break;
        evals_[d].insert(e);
      }
    }
    curr_.ClearAll();
    return true;
  }

  /// Full campaign reset (keeps the spec binding).
  void ResetCampaign();

  static constexpr std::size_t kMaxEvalsPerDecision = 2048;

 private:
  /// No PackEval result sets bits 56..63, so this never matches one.
  static constexpr std::uint64_t kNoEval = ~std::uint64_t{0};
  void ForgetLastEvals() { last_eval_.assign(evals_.size(), kNoEval); }

  const CoverageSpec* spec_;
  DynamicBitset curr_;
  DynamicBitset total_;
  std::vector<std::unordered_set<std::uint64_t>> evals_;
  // The last evaluation RecordEval saw per decision: a repeat of it is
  // already in evals_ (or was refused at the cap). Reset whenever evals_ is
  // replaced or cleared.
  std::vector<std::uint64_t> last_eval_;
};

}  // namespace cftcg::coverage
