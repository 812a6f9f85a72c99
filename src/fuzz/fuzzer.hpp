// The model-oriented fuzzing loop (paper §3.2) — a libFuzzer-style
// in-process loop over the compiled model program.
//
// Two configurations share this engine:
//   * CFTCG mode (model_oriented = true): the program carries model-level
//     branch instrumentation; feedback is the model branch space; mutation
//     is field-wise over tuples; corpus scheduling uses the Iteration
//     Difference Coverage metric of Algorithm 1.
//   * Fuzz Only mode (model_oriented = false): the program is compiled
//     without model instrumentation (boolean logic branch-free) but with
//     code-level edge marks; feedback is the edge map; mutation is generic
//     byte-level. Saved test cases are *measured* on the instrumented
//     program afterwards — just like the paper converts test cases and
//     measures with Simulink's coverage tooling — so both modes report in
//     the same model-coverage space (Figure 8). Measurement re-runs are
//     accounted separately (measure_iterations) so throughput numbers only
//     count iterations of the fuzzing target.
//
// The Fuzzer is the per-lane execution loop only. A campaign — heartbeats,
// checkpoints, interrupts, registry and board aggregates, `start`/`stop`
// events — is always run by the round driver (RunLaneCampaign, lane.hpp),
// at -j1 over a single lane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coverage/provenance.hpp"
#include "coverage/report.hpp"
#include "coverage/sink.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/focus.hpp"
#include "fuzz/mutator.hpp"
#include "obs/clock.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "vm/machine.hpp"

namespace cftcg::obs {
class CampaignStatusBoard;  // obs/monitor.hpp: live-monitoring status board
}

namespace cftcg::fuzz {

struct FuzzerState;        // checkpoint.hpp: full resumable state of one Fuzzer
struct CampaignCheckpoint; // checkpoint.hpp: on-disk campaign checkpoint

struct FuzzerOptions {
  std::uint64_t seed = 1;
  bool model_oriented = true;     // field-wise mutation + model feedback + IDC
  bool use_idc_energy = true;     // Algorithm 1 corpus scheduling (ablation switch)
  std::size_t max_tuples = 256;   // length cap per input, in tuples (~libFuzzer max_len)
  std::size_t seed_inputs = 8;    // initial random corpus entries
  /// Optional per-inport value ranges (§5 of the paper: testers can narrow
  /// the random exploration space of over-wide integer inports).
  std::vector<FieldRange> field_ranges;
  /// Optional static-analysis verdicts (src/analysis). Proved-unreachable
  /// slots are dropped from the campaign's stopping frontier — the fuzzer
  /// stops early once every *reachable* slot is covered — and the final
  /// report carries justified-objective accounting. Not owned; must outlive
  /// the Fuzzer. Null disables both.
  const coverage::JustificationSet* justifications = nullptr;
  /// Optional focused-mutation plan (`fuzz --focus`): per-objective
  /// dependence slices computed by analysis/slice.hpp and projected into
  /// plain data (focus.hpp). When set (CFTCG mode only), the field-edit
  /// strategies restrict their target fields to the current frontier
  /// objective's slice; null (the default) leaves the mutation schedule
  /// bit-identical to builds without focus. Not owned; must outlive the
  /// Fuzzer.
  const FocusPlan* focus = nullptr;
  /// Optional per-inport "interesting" ranges harvested by the analyzer
  /// (ModelAnalysis::inport_ranges). Used ONLY to seed the corpus with
  /// boundary-value inputs — never as mutation clamps, which would
  /// unsoundly restrict the search space. One entry per inport field;
  /// inactive entries are skipped.
  std::vector<FieldRange> boundary_seed_ranges;
  /// Optional campaign telemetry (metrics registry, JSONL trace, periodic
  /// heartbeat/status line), read by the campaign driver. The Fuzzer itself
  /// only writes its per-execution events (`new`, `frontier`, `corpus`,
  /// `hang`) to `trace`; the driver gives each lane an in-memory trace and
  /// forwards it. Not owned; must outlive the Fuzzer. Null keeps the loop
  /// telemetry-free.
  obs::CampaignTelemetry* telemetry = nullptr;
  /// Optional live status board (obs/monitor.hpp, the `fuzz --serve`
  /// endpoints): the engine stamps per-execution progress into its worker
  /// lane (two relaxed atomic stores); the campaign driver publishes the
  /// heartbeat aggregates.
  /// Not owned; must outlive the Fuzzer. Null (default) keeps the loop
  /// entirely monitoring-free.
  obs::CampaignStatusBoard* status_board = nullptr;
  /// This engine's lane on the status board (parallel workers use 0..N-1).
  int status_worker = 0;
  /// Optional per-objective first-hit attribution (fed on new-coverage
  /// events only, so no hot-path cost when covered slots stop growing —
  /// except the per-execution MCDC eval-set growth check, which exists
  /// only when this is set). Not owned; must outlive the Fuzzer.
  coverage::ProvenanceMap* provenance = nullptr;
  /// Optional best-observed-distance recording for residual diagnostics,
  /// attached to the instrumented Machine (same program either way). Not
  /// owned; Reset(spec) is called by the Fuzzer. FuzzerState carries the
  /// distances; the lane driver merges per-lane recorders into this one.
  coverage::MarginRecorder* margins = nullptr;
  /// Compute a per-input coverage signature during execution (the parallel
  /// engine's corpus-sync dedup key). Off by default: a one-lane campaign
  /// never pays for the hashing.
  bool collect_signatures = false;
  // -- Self-profiling (obs/profiler.hpp) ----------------------------------
  /// The count plane (per-instruction dispatch counters) is always on.
  /// Setting this additionally arms the phase lap clock (the `--profile`
  /// timed mode).
  bool profile_timing = false;
  /// Optional live snapshot sink (the monitor's /profile endpoint): the
  /// campaign driver publishes the merged CampaignProfile at heartbeats and
  /// at the end. Not owned; must outlive the campaign. Null skips
  /// publication.
  obs::ProfilePublisher* profile_publisher = nullptr;
  // -- Campaign durability (checkpoint.hpp) -------------------------------
  /// Resume this Fuzzer from a checkpointed state instead of seeding a
  /// fresh corpus. Not owned; must outlive Begin(). The caller validates
  /// identity with ValidateCheckpoint() first.
  const FuzzerState* resume = nullptr;
  /// Periodic checkpointing by the campaign driver: write `checkpoint_path`
  /// atomically at the first round barrier past every multiple of this many
  /// executions (0 = only on interrupt). Barriers sit between executions, so
  /// checkpoints never perturb the deterministic schedule.
  std::uint64_t checkpoint_every = 0;
  /// Destination for the driver's checkpoints (periodic and interrupt-time).
  /// Empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Cooperative interruption (SIGINT/SIGTERM): when the pointed-to flag
  /// becomes true, the campaign driver stops at the next round barrier,
  /// writes a final checkpoint (if checkpoint_path is set) and produces the
  /// partial report. Not owned; may be null.
  const std::atomic<bool>* interrupt = nullptr;
  // -- Hang containment ---------------------------------------------------
  /// Per-model-iteration cap on backward control transfers in the VM (see
  /// vm::Machine::set_step_budget). Inputs that blow the budget are
  /// quarantined instead of wedging the campaign. Healthy models never get
  /// near the default; 0 disables containment.
  std::uint64_t step_budget = 1 << 20;
  /// Where quarantined hanging inputs are written (libFuzzer's timeout
  /// artifacts). Empty: hangs are counted and traced but not saved.
  std::string hangs_dir;
  // -- Crash forensics ----------------------------------------------------
  /// Invoked immediately before every input execution with the input bytes.
  /// The supervised engine points this at a shared-memory stamp so the
  /// supervisor can quarantine the in-flight input when the worker process
  /// dies mid-execution. Must be cheap; may be null.
  void (*input_tap)(void* ctx, const std::uint8_t* data, std::size_t size) = nullptr;
  void* input_tap_ctx = nullptr;
};

struct FuzzBudget {
  double wall_seconds = 1.0;               // stop after this much wall-clock
  std::uint64_t max_executions = UINT64_MAX;  // or after this many inputs
};

/// One generated test case (an input that triggered new model coverage).
struct TestCase {
  std::vector<std::uint8_t> data;
  double time_s = 0;             // seconds since campaign start
  std::size_t new_slots = 0;     // branch slots newly covered
  int decision_outcomes_covered = 0;  // cumulative, for Figure 7 curves
};

struct CampaignResult {
  std::vector<TestCase> test_cases;
  std::uint64_t executions = 0;
  /// Iterations of the fuzzing target only (throughput denominator).
  std::uint64_t model_iterations = 0;
  /// Iterations spent re-running saved/imported inputs on the instrumented
  /// program for model-coverage measurement (Fuzz Only mode, corpus-sync
  /// imports). Excluded from iters_per_s so Fig. 8 speed numbers are honest.
  std::uint64_t measure_iterations = 0;
  coverage::MetricReport report;  // measured on the instrumented program
  double elapsed_s = 0;
  /// Per-strategy application / NEW-coverage-credit counts (Table 1
  /// accounting). All zero in Fuzz Only mode (byte mutation has no
  /// strategy structure).
  StrategyStats strategy_stats;
  /// Per-independence-component focus accounting (empty without --focus).
  /// Telemetry only: intentionally not checkpointed, so enabling focus does
  /// not change the checkpoint format.
  FocusStats focus_stats;
  /// Inputs that exceeded the per-iteration step budget and were quarantined.
  std::uint64_t hangs = 0;
  /// True when the campaign driver stopped on options.interrupt rather than
  /// budget exhaustion (the report is partial; a checkpoint was written if
  /// configured).
  bool interrupted = false;
  /// Determinism fingerprints of the final campaign state (checkpoint.hpp):
  /// identical between an interrupted-and-resumed campaign and an
  /// uninterrupted one.
  std::uint64_t corpus_fingerprint = 0;
  std::uint64_t coverage_fingerprint = 0;
  /// Self-profile (obs/profiler.hpp): per-instruction dispatch counters of
  /// the instrumented machine (the fuzzing target in CFTCG mode, the
  /// measurement plane in Fuzz Only mode), the edge machine's counters
  /// (Fuzz Only mode's fuzzing target; empty otherwise), and cumulative
  /// phase wall time. Deterministic, merged across workers in worker-id
  /// order, preserved across checkpoint/resume.
  vm::ExecProfile exec_profile;
  vm::ExecProfile fuzz_exec_profile;
  obs::PhaseProfile phase_profile;
};

class Fuzzer {
 public:
  /// `instrumented` must carry model-level instrumentation (used for
  /// measurement in both modes and as the fuzzing target in CFTCG mode).
  /// `fuzz_only_program` is required when model_oriented is false: compiled
  /// without model instrumentation but with edge marks.
  Fuzzer(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
         FuzzerOptions options, const vm::Program* fuzz_only_program = nullptr);

  /// The bare execution loop over the whole budget, with no campaign around
  /// it (no heartbeats, checkpoints or interrupts; tests and benches).
  CampaignResult Run(const FuzzBudget& budget);

  // -- Incremental driving (the lane driver, lane.hpp) ---------------------
  // Run(budget) == Begin(budget) + RunChunk(UINT64_MAX) + Finish(), step for
  // step, so a lane's schedule does not depend on its round size.
  /// Seeds the corpus (or restores options.resume).
  void Begin(const FuzzBudget& budget);
  /// Advances the loop until the cumulative execution count reaches
  /// `until_executions`, the budget is exhausted, or the wall clock runs
  /// out. Returns the cumulative execution count.
  std::uint64_t RunChunk(std::uint64_t until_executions);
  /// True once the campaign budget is exhausted (RunChunk became a no-op).
  [[nodiscard]] bool done() const { return campaign_done_; }
  /// Closes the campaign (final MCDC sweep and report).
  CampaignResult Finish();

  // -- Corpus-sync hooks (the parallel engine) ----------------------------
  /// Runs a foreign corpus entry through this worker's executors and admits
  /// it to the local corpus (lineage chain "import"). The re-runs count as
  /// measure_iterations, not throughput; no test case is emitted (the
  /// discovering worker already exported it) and no provenance is recorded
  /// (the merged attribution keeps the discoverer's first hit).
  void ImportEntry(const std::vector<std::uint8_t>& data, std::uint64_t signature);

  /// Executes one input through the instrumented program, implementing
  /// Algorithm 1: per-iteration coverage, test-case output on new coverage,
  /// and the Iteration Difference Coverage metric as the return value.
  /// Exposed publicly for unit tests.
  std::size_t RunOneInstrumented(const std::vector<std::uint8_t>& data, bool* found_new,
                                 std::size_t* new_slots);

  [[nodiscard]] const coverage::CoverageSink& sink() const { return sink_; }
  [[nodiscard]] const Corpus& corpus() const { return corpus_; }
  /// Live self-profile counters (the parallel driver merges these at sync
  /// barriers; safe to read whenever the engine is not inside RunChunk).
  /// Every read of the planes — these accessors, SaveState and Finish —
  /// first flushes the machines' pending dispatch counts
  /// (vm::Machine::FlushProfile), so they are always exact.
  [[nodiscard]] const vm::ExecProfile& exec_profile() const {
    FlushProfiles();
    return exec_profile_;
  }
  [[nodiscard]] const vm::ExecProfile& fuzz_exec_profile() const {
    FlushProfiles();
    return fuzz_exec_profile_;
  }
  [[nodiscard]] const obs::PhaseProfile& phase_profile() const { return phase_profile_; }
  [[nodiscard]] std::uint64_t executions() const { return result_.executions; }
  [[nodiscard]] std::uint64_t model_iterations() const { return model_iterations_; }
  [[nodiscard]] std::uint64_t measure_iterations() const { return measure_iterations_; }
  [[nodiscard]] std::uint64_t hangs() const { return result_.hangs; }
  [[nodiscard]] std::size_t test_cases() const { return result_.test_cases.size(); }
  [[nodiscard]] const StrategyStats& strategy_stats() const { return strategy_stats_; }

  // -- Campaign durability (checkpoint.hpp) -------------------------------
  /// Captures the complete resumable state at the current (inter-execution)
  /// point. Valid between Begin() and Finish().
  [[nodiscard]] FuzzerState SaveState() const;
  /// Wraps SaveState() in a single-worker on-disk checkpoint carrying the
  /// campaign identity (the lane driver builds its own checkpoint from
  /// per-lane SaveState() calls).
  [[nodiscard]] CampaignCheckpoint MakeCheckpoint() const;
  /// Identity hash this engine validates checkpoints against.
  [[nodiscard]] std::uint64_t spec_fingerprint() const;

 private:
  void MeasureOnInstrumented(const std::vector<std::uint8_t>& data);
  std::size_t RunOneEdges(const std::vector<std::uint8_t>& data, bool* found_new);
  /// True when every fuzz slot not proved unreachable by the analyzer is
  /// covered (early-stop criterion; always false without justifications).
  [[nodiscard]] bool AllReachableCovered() const;
  /// Admits one seed input to the corpus (shared by random and boundary
  /// seeding in Begin()).
  void AdmitSeed(std::vector<std::uint8_t> data, const char* chain, std::size_t tuple_size);
  /// Deterministic boundary-value seeds from options_.boundary_seed_ranges.
  void SeedBoundaryInputs(std::size_t tuple_size);
  /// Campaign wall time: watch_ plus the elapsed seconds a resumed
  /// checkpoint already consumed, so wall budgets and timestamps span
  /// interruptions.
  [[nodiscard]] double Elapsed() const { return time_base_ + watch_.Elapsed(); }
  /// Restores every campaign field from a checkpointed state (Begin's
  /// resume path; replaces seeding).
  void RestoreFromState(const FuzzerState& state);
  /// Books a step-budget blowout: counts it, emits a trace event, and saves
  /// the input under options_.hangs_dir (content-hashed name, so re-hitting
  /// the same hang after a resume dedups).
  void QuarantineHang(const std::vector<std::uint8_t>& data);
  /// The `new` event of a test case, and a `frontier` event when the
  /// covered slot set grew past the last one reported.
  void TraceNew(const TestCase& tc, std::size_t metric, std::size_t tuple_size);
  /// The `corpus` genealogy event of the entry just admitted.
  void TraceCorpus(const std::string& chain);
  /// Picks the focus frontier objective's slice fields for the next
  /// mutation (null when focus is off, the frontier is empty, or the
  /// current objective has no influencing fields). Rebuilds the cached
  /// frontier lazily after coverage growth; rotates through the frontier
  /// every FocusPlan::rotate_every executions. Pure function of campaign
  /// state — deterministic and resume-stable.
  const std::vector<std::size_t>* PickFocusFields();
  /// Folds both machines' pending dispatch counts into the profile planes.
  void FlushProfiles() const;
  int DecisionOutcomesCovered() const;
  std::size_t IdcDensity(std::size_t metric, const std::vector<std::uint8_t>& data) const;
  void Attribute(double t, std::int64_t entry_id, const std::string& chain);

  const vm::Program* instrumented_;
  const vm::Program* fuzz_only_;
  const coverage::CoverageSpec* spec_;
  FuzzerOptions options_;
  vm::Machine machine_;          // instrumented program
  vm::CmpTrace cmp_trace_;       // libFuzzer-style table of recent compares
  coverage::CoverageSink sink_;  // model coverage (measurement space)
  DynamicBitset last_cov_;       // Algorithm 1's lastCov
  TupleMutator tuple_mutator_;
  ByteMutator byte_mutator_;
  Corpus corpus_;
  Rng rng_;
  obs::TraceWriter* trace_;  // per-execution events (options_.telemetry->trace)
  std::size_t last_frontier_ = 0;  // covered slots at the last `frontier` event
  std::uint64_t model_iterations_ = 0;
  std::uint64_t measure_iterations_ = 0;
  StrategyStats strategy_stats_;
  // Self-profiling state (always attached; see FuzzerOptions::profile_timing).
  vm::ExecProfile exec_profile_;       // instrumented machine
  vm::ExecProfile fuzz_exec_profile_;  // edge machine (Fuzz Only mode)
  obs::PhaseProfile phase_profile_;
  // Fuzz-only state.
  std::unique_ptr<vm::Machine> fuzz_machine_;
  std::vector<std::uint8_t> edge_total_;
  std::vector<std::uint8_t> edge_curr_;
  // Campaign-in-progress state (Begin .. RunChunk* .. Finish).
  FuzzBudget budget_;
  CampaignResult result_;
  obs::Stopwatch watch_;
  std::vector<std::size_t> seen_eval_sizes_;  // per-decision eval-set sizes at last check
  std::vector<MutationStrategy> applied_;     // scratch, reused across executions
  std::size_t best_metric_ = 0;
  bool track_strategies_ = false;
  bool campaign_active_ = false;
  bool campaign_done_ = false;
  bool frontier_exhausted_ = false;  // all reachable slots covered (early stop)
  // Focused-mutation state (options_.focus; rebuilt lazily, never persisted).
  std::vector<int> focus_frontier_;   // uncovered, non-excluded, sliced slots
  bool focus_frontier_stale_ = true;
  int focus_component_ = -1;          // component of the last focused mutation
  std::uint64_t last_signature_ = 0;  // coverage signature of the last run input
  // Campaign durability state.
  double time_base_ = 0;              // elapsed seconds restored from a checkpoint
  bool last_input_hung_ = false;      // step budget blew during the last run
};

}  // namespace cftcg::fuzz
