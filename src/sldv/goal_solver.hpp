// Constraint-solving-style test generation — the SLDV baseline substitute.
//
// Simulink Design Verifier is closed source; we reproduce its *qualitative
// profile* as the paper characterizes it:
//   * it works goal-by-goal: each decision outcome / condition polarity is
//     a proof/solving objective;
//   * it unrolls the model's iterative execution a bounded number of steps
//     ("the constraint solver can only perform a limited loop unrolling"),
//     so objectives that need deep sequential state are out of reach;
//   * it is excellent at shallow arithmetic objectives (a solver treats a
//     numeric comparison exactly; our substitute uses recorded branch
//     margins + alternating-variable search, which converges on the same
//     objectives);
//   * its cost grows with the unrolled constraint system; we account for
//     that with an explicit constraint-node budget, mirroring the paper's
//     observation of SLDV exceeding 12 GB on SolarPV.
//
// Interval analysis (interval.hpp) seeds each input variable's search range
// from its declared type.
#pragma once

#include "coverage/report.hpp"
#include "coverage/sink.hpp"
#include "fuzz/fuzzer.hpp"  // TestCase / CampaignResult shapes are shared
#include "sldv/interval.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"

namespace cftcg::sldv {

struct SolverOptions {
  std::uint64_t seed = 1;
  /// Bounded unrolling horizon, in model iterations. Objectives needing
  /// longer input sequences are unreachable — the paper's SLDV limitation.
  int horizon = 6;
  /// AVM restarts per objective per sweep.
  int restarts_per_goal = 3;
  /// Local-search step limit per restart.
  int max_moves = 200;
};

struct SolverStats {
  std::uint64_t runs = 0;               // candidate executions
  std::uint64_t goals_total = 0;
  std::uint64_t goals_covered = 0;
  /// Size proxy for the unrolled constraint system (decisions x horizon x
  /// conditions); reported so resource blowup on state-heavy models is
  /// visible, mirroring SLDV's memory growth.
  std::uint64_t constraint_nodes = 0;
};

class GoalSolver {
 public:
  /// `program` must be lowered with model instrumentation (the
  /// CompiledModel::instrumented() program); the solver's Machine records
  /// its margin side table.
  GoalSolver(const vm::Program& program, const coverage::CoverageSpec& spec,
             SolverOptions options);

  fuzz::CampaignResult Run(const fuzz::FuzzBudget& budget);

  /// Pre-marks already-covered slots (hybrid mode: the paper's §6 future
  /// work of combining fuzzing with constraint solving). Goals whose slot
  /// is already set are skipped, so the solver spends its budget only on
  /// the fuzzer's residual objectives.
  void SeedCoverage(const DynamicBitset& covered);

  /// Narrows the per-field search ranges from externally computed interval
  /// analysis (the static analyzer's ModelAnalysis::inport_ranges): each
  /// provided range replaces the declared-dtype default after intersecting
  /// with it, so the alternating-variable search starts near the thresholds
  /// the model actually compares against. Empty or missing entries keep the
  /// dtype default.
  void SeedInputRanges(const std::vector<Interval>& ranges);

  [[nodiscard]] const SolverStats& stats() const { return stats_; }
  [[nodiscard]] const coverage::CoverageSink& sink() const { return sink_; }

 private:
  /// Runs one candidate (horizon tuples of field values); returns the
  /// margin-based distance to (decision, outcome), 0 when reached.
  double Evaluate(const std::vector<double>& candidate, coverage::DecisionId d, int outcome,
                  std::vector<std::size_t>* newly_covered);

  std::vector<double> RandomCandidate();
  std::vector<std::uint8_t> Serialize(const std::vector<double>& candidate) const;

  const vm::Program* program_;
  const coverage::CoverageSpec* spec_;
  SolverOptions options_;
  vm::Machine machine_;
  coverage::CoverageSink sink_;
  coverage::MarginRecorder margins_;
  Rng rng_;
  SolverStats stats_;
  std::vector<Interval> field_ranges_;  // per input field
  std::vector<bool> field_is_float_;
};

}  // namespace cftcg::sldv
