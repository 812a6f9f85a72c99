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
#include <cassert>
#include <cstddef>
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
    // Most evaluations repeat one the decision saw recently (69-98% repeat
    // the previous one per bench model in a 20000-execution campaign, and
    // nearly all of the rest one of the few before), which is already in
    // the set (or was refused at the cap, and the set only grows), so a
    // word compare against the known-evaluation cache skips the hash insert.
    const std::uint64_t e = PackEval(values, mask, outcome);
    std::uint64_t& known = known_evals_[KnownEvalSlot(d, e)];
    if (e == known) return;
    known = e;
    auto& set = evals_[static_cast<std::size_t>(d)];
    if (set.size() < kMaxEvalsPerDecision) set.insert(e);
  }

  /// Evaluations RecordEval has seen, kEvalWays direct-mapped words per
  /// decision (KnownEvalSlot): native model code runs RecordEval's filter
  /// against them before calling out.
  [[nodiscard]] const std::uint64_t* known_evals() const { return known_evals_.data(); }
  static constexpr std::size_t kEvalWays = 4;
  static constexpr std::uint64_t kEvalWayHash = 0x9E3779B97F4A7C15ULL;
  /// The known-evaluation word of decision `d` that `e` maps to: the top two
  /// bits of a multiplicative hash pick one of its kEvalWays words.
  [[nodiscard]] static std::size_t KnownEvalSlot(DecisionId d, std::uint64_t e) {
    static_assert(kEvalWays == 4, "the way is the hash's top two bits");
    const auto way = static_cast<std::size_t>((e * kEvalWayHash) >> 62);
    return static_cast<std::size_t>(d) * kEvalWays + way;
  }

  // -- Iteration control --------------------------------------------------
  /// Clears the per-iteration map (Algorithm 1 line 11).
  void BeginIteration() { curr_.ClearAll(); }
  /// Merges curr into total; returns number of newly covered slots.
  std::size_t AccumulateIteration() { return total_.MergeAndCountNew(curr_); }

  /// What FinishIteration found in one iteration's curr.
  struct IterationDelta {
    std::size_t new_bits = 0;     // AccumulateIteration's count
    std::size_t differences = 0;  // curr().CountDifferences(last) before the copy
    std::uint64_t hash = 0;       // curr().Hash()
  };
  /// Algorithm 1's bookkeeping after one iteration, as one pass over the
  /// words: AccumulateIteration, then CountDifferences against `last`, then
  /// `last = curr`, then Hash, then BeginIteration for the next iteration.
  /// The fuzzing loop keeps curr clear between iterations this way; other
  /// callers may keep BeginIteration/AccumulateIteration.
  IterationDelta FinishIteration(DynamicBitset& last) {
    assert(last.size() == curr_.size());
    std::uint64_t* const curr = curr_.word_data();
    std::uint64_t* const total = total_.word_data();
    std::uint64_t* const prev = last.word_data();
    const std::size_t words = curr_.words().size();
    IterationDelta out;
    out.hash = DynamicBitset::kHashBasis;
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t c = curr[i];
      // Most words add nothing and repeat the last iteration, so each count
      // is skipped when its word is zero.
      if (const std::uint64_t fresh = c & ~total[i]; fresh != 0) {
        out.new_bits += PopCount64(fresh);
        total[i] |= c;
      }
      if (const std::uint64_t diff = c ^ prev[i]; diff != 0) {
        out.differences += PopCount64(diff);
        prev[i] = c;
      }
      out.hash = DynamicBitset::HashWord(out.hash, c);
      curr[i] = 0;
    }
    return out;
  }

  [[nodiscard]] const DynamicBitset& curr() const { return curr_; }
  /// The curr words, writable: native model code sets its bits through
  /// this (slot k is bit k % 64 of word k / 64).
  [[nodiscard]] std::uint64_t* curr_words() { return curr_.word_data(); }
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
    ForgetKnownEvals();
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
  void ForgetKnownEvals() { known_evals_.assign(evals_.size() * kEvalWays, kNoEval); }

  const CoverageSpec* spec_;
  DynamicBitset curr_;
  DynamicBitset total_;
  std::vector<std::unordered_set<std::uint64_t>> evals_;
  // Evaluations RecordEval saw, a direct-mapped cache per decision: each is
  // already in evals_ (or was refused at the cap). Reset whenever evals_ is
  // replaced or cleared.
  std::vector<std::uint64_t> known_evals_;
};

}  // namespace cftcg::coverage
