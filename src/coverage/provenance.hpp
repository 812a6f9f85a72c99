// Coverage provenance — per-objective first-hit attribution.
//
// The coverage *objective universe* of a model is every goal the Table 3
// metrics count:
//   * one objective per decision outcome          (Decision Coverage),
//   * one per condition polarity (true / false)   (Condition Coverage),
//   * one per condition of a multi-condition decision that needs a masking
//     independence pair                           (MCDC).
//
// A ProvenanceMap records, for each objective, the moment it was first
// satisfied: the execution index, wall time since campaign start, the id of
// the corpus entry whose input covered it, and the Table 1 strategy chain
// that produced that input. The fuzzing loop feeds it only on new-coverage
// events (rare), so attribution is off the hot path entirely; a campaign
// without a ProvenanceMap pays nothing.
//
// Residual diagnostics are the complement: for every decision outcome never
// hit, how close the campaign got — the best MarginRecorder distance
// observed — mapped back to CoverageSpec block/decision names. This is the
// per-goal bookkeeping a hybrid fuzz+solver pipeline hands to the solver
// (the ROADMAP's BMC/SLDV direction) and what `cftcg explain` renders.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "coverage/justify.hpp"
#include "coverage/sink.hpp"
#include "coverage/spec.hpp"
#include "support/bitset.hpp"

namespace cftcg::coverage {

enum class ObjectiveKind {
  kDecisionOutcome,
  kConditionTrue,
  kConditionFalse,
  kMcdcPair,
};
std::string_view ObjectiveKindName(ObjectiveKind kind);

/// One attributed objective: what was covered, and by whom/when.
struct ObjectiveFirstHit {
  ObjectiveKind kind = ObjectiveKind::kDecisionOutcome;
  std::string name;          // decision / condition name from the spec
  DecisionId decision = -1;  // owning decision (kMcdcPair, kDecisionOutcome)
  ConditionId condition = -1;
  int outcome = -1;          // decision outcome index (kDecisionOutcome)
  int slot = -1;             // fuzz-branch slot (-1 for kMcdcPair)
  std::uint64_t iteration = 0;  // execution count at first hit (1-based)
  double time_s = 0;            // wall time since campaign start
  std::int64_t entry_id = -1;   // discovering corpus entry
  std::string chain;            // producing strategy chain ("seed" for seeds)
};

/// An uncovered decision outcome with its best observed margin distance.
struct ResidualObjective {
  DecisionId decision = -1;
  int outcome = -1;
  std::string name;      // "<decision>[<outcome>]", matching UncoveredOutcomes
  double distance = 0;   // MarginRecorder::kUnreached if never evaluated
  /// Static-analyzer verdict: the objective is proved unreachable, so the
  /// miss is justified rather than a fuzzing shortfall.
  bool justified = false;
  std::string justify_reason;  // analyzer's reason; empty when not justified
};

class ProvenanceMap {
 public:
  explicit ProvenanceMap(const CoverageSpec& spec);

  /// Attributes every slot set in `total` that has no attribution yet to
  /// the given (iteration, time, corpus entry, chain); returns indices into
  /// hits() for the newly attributed objectives. Called only when an input
  /// triggers new coverage, so the scan over the slot space is amortized
  /// over the (rare) coverage-frontier advances.
  std::vector<std::size_t> AttributeSlots(const DynamicBitset& total, std::uint64_t iteration,
                                          double time_s, std::int64_t entry_id,
                                          std::string_view chain);

  /// Rechecks the not-yet-attributed MCDC objectives of decision `d`
  /// against its evaluation set; newly satisfied independence pairs are
  /// attributed to the given discoverer. Callers invoke this only for
  /// decisions whose evaluation set grew since the last check.
  std::vector<std::size_t> AttributeMcdc(DecisionId d,
                                         const std::unordered_set<std::uint64_t>& evals,
                                         std::uint64_t iteration, double time_s,
                                         std::int64_t entry_id, std::string_view chain);

  /// Records an attribution discovered elsewhere (another worker's map) if
  /// the objective is still unattributed here; the hit is copied verbatim,
  /// keeping the discoverer's iteration/time/entry/chain. Returns true if
  /// absorbed. The parallel engine folds MergeFirstHits output into the
  /// caller-provided map through this.
  bool AbsorbHit(const ObjectiveFirstHit& hit);

  /// All attributions so far, in discovery order.
  [[nodiscard]] const std::vector<ObjectiveFirstHit>& hits() const { return hits_; }
  /// Size of the objective universe (covered + uncovered).
  [[nodiscard]] std::size_t num_objectives() const { return num_objectives_; }
  [[nodiscard]] std::size_t num_covered() const { return hits_.size(); }

  /// {"covered":N,"total":M,"objectives":[{...first hit...},...]} — parses
  /// back with obs::ParseJson; the CLI embeds it in the --metrics snapshot.
  [[nodiscard]] std::string ToJson() const;

 private:
  const CoverageSpec* spec_;
  std::vector<ObjectiveFirstHit> hits_;
  // Per-slot / per-MCDC-objective state: -1 unattributed, else hits_ index.
  std::vector<int> slot_hit_;
  std::vector<int> mcdc_hit_;     // flattened (decision, condition index)
  std::vector<int> mcdc_offset_;  // first mcdc_hit_ index per decision
  std::size_t num_objectives_ = 0;
};

/// Merges per-worker first-hit attributions into one deterministic list.
/// For each objective — keyed by (kind, slot, decision, condition, outcome)
/// — the hit with the smallest iteration wins; ties go to the lowest worker
/// index (position in `workers`), so the result is reproducible for a fixed
/// seed and worker count regardless of thread scheduling. Output is ordered
/// by discovery iteration (ties in objective-key order). Null entries in
/// `workers` are skipped. `origin`, when set, receives the worker index of
/// each merged hit (hit entry ids are local to that worker's corpus).
std::vector<ObjectiveFirstHit> MergeFirstHits(const std::vector<const ProvenanceMap*>& workers,
                                              std::vector<std::size_t>* origin = nullptr);

/// Lists every uncovered decision outcome with its best observed distance
/// (`margins` may be null: all distances report as kUnreached). Order
/// matches UncoveredOutcomes(). A non-null `justifications` flags residuals
/// the static analyzer proved unreachable, carrying its reason string.
std::vector<ResidualObjective> ResidualDiagnostics(const CoverageSpec& spec,
                                                   const DynamicBitset& total,
                                                   const MarginRecorder* margins,
                                                   const JustificationSet* justifications = nullptr);

}  // namespace cftcg::coverage
