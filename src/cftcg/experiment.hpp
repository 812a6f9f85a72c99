// Shared experiment runner for the benchmark harness.
//
// Every table/figure bench runs (model x tool x budget x repetitions) cells
// through this one entry point so configurations stay comparable.
#pragma once

#include <string>
#include <vector>

#include "cftcg/pipeline.hpp"
#include "fuzz/fuzzer.hpp"
#include "obs/telemetry.hpp"

namespace cftcg {

enum class Tool {
  kSldv,       // constraint-solving baseline (bounded goal solver)
  kSimCoTest,  // simulation-based baseline (signal diversity on interpreter)
  kCftcg,      // the paper's tool: model-oriented fuzzing loop
  kFuzzOnly,   // ablation: generic fuzzing of uninstrumented code (Fig. 8)
  kCftcgNoIdc, // ablation: CFTCG without Iteration Difference Coverage energy
  kCftcgHybrid,// §6 future work: fuzzing first, constraint solving on the
               // residual uncovered objectives (70/30 budget split)
};
std::string_view ToolName(Tool tool);

/// Runs one tool on one compiled model under a budget. `telemetry` (may be
/// null) is honored by the fuzzing-loop tools (CFTCG, FuzzOnly, CFTCG-noIDC
/// and the fuzzing phase of the hybrid); the baselines ignore it. Every
/// tool run is additionally wrapped in a `tool.<name>` phase timer.
/// `provenance`/`margins` (may be null) attach per-objective first-hit
/// attribution and residual-distance recording to the same fuzzing-loop
/// tools (the margins recorder attaches to the campaign's Machine).
fuzz::CampaignResult RunTool(CompiledModel& cm, Tool tool, const fuzz::FuzzBudget& budget,
                             std::uint64_t seed, obs::CampaignTelemetry* telemetry = nullptr,
                             coverage::ProvenanceMap* provenance = nullptr,
                             coverage::MarginRecorder* margins = nullptr);

struct AveragedMetrics {
  double decision_pct = 0;
  double condition_pct = 0;
  double mcdc_pct = 0;
  double executions = 0;
  double iterations = 0;
  /// Mean executions/second, read from the per-repetition telemetry
  /// snapshot (`fuzz.exec_per_s`); falls back to executions/elapsed for
  /// tools that do not emit fuzzer telemetry.
  double exec_per_s = 0;
};

/// Repeats RunTool with seeds seed+0..reps-1 and averages the metrics
/// (the paper repeats 10x for the randomized tools). Each repetition runs
/// against a private obs::Registry and the averages are computed from the
/// same registry snapshots the CLI and benches export.
AveragedMetrics RunAveraged(CompiledModel& cm, Tool tool, const fuzz::FuzzBudget& budget,
                            std::uint64_t seed, int reps);

}  // namespace cftcg
