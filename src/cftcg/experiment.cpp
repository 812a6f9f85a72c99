#include "cftcg/experiment.hpp"

#include "obs/timer.hpp"
#include "simcotest/simcotest.hpp"
#include "sldv/goal_solver.hpp"
#include "support/strings.hpp"

namespace cftcg {

std::string_view ToolName(Tool tool) {
  switch (tool) {
    case Tool::kSldv: return "SLDV";
    case Tool::kSimCoTest: return "SimCoTest";
    case Tool::kCftcg: return "CFTCG";
    case Tool::kFuzzOnly: return "FuzzOnly";
    case Tool::kCftcgNoIdc: return "CFTCG-noIDC";
    case Tool::kCftcgHybrid: return "CFTCG+solver";
  }
  return "?";
}

namespace {

/// The hybrid pipeline of the paper's §6 future work: run the fuzzing loop
/// for most of the budget, then point the constraint-style goal solver at
/// whatever decision outcomes remain uncovered (inter-inport-correlated
/// guards are exactly where fuzzing plateaus, §5).
fuzz::CampaignResult RunHybrid(CompiledModel& cm, const fuzz::FuzzBudget& budget,
                               std::uint64_t seed, obs::CampaignTelemetry* telemetry,
                               coverage::ProvenanceMap* provenance,
                               coverage::MarginRecorder* margins) {
  fuzz::FuzzerOptions fo;
  fo.seed = seed;
  fo.telemetry = telemetry;
  fo.provenance = provenance;
  fo.margins = margins;
  fuzz::FuzzBudget fuzz_budget;
  fuzz_budget.wall_seconds = budget.wall_seconds * 0.7;
  fuzz_budget.max_executions = budget.max_executions;
  fuzz::ParallelCampaignResult fuzzed = cm.FuzzParallel(fo, fuzz_budget, {});
  fuzz::CampaignResult merged = std::move(fuzzed.merged);
  const coverage::CoverageSink& fuzz_cov = *fuzzed.coverage;

  sldv::SolverOptions so;
  so.seed = seed;
  so.horizon = 8;
  sldv::GoalSolver solver(cm.instrumented(), cm.spec(), so);
  solver.SeedInputRanges(cm.analysis().inport_ranges);
  solver.SeedCoverage(fuzz_cov.total());
  fuzz::FuzzBudget solve_budget;
  solve_budget.wall_seconds = budget.wall_seconds * 0.3;
  const auto solved = solver.Run(solve_budget);

  for (auto tc : solved.test_cases) {
    tc.time_s += fuzz_budget.wall_seconds;
    merged.test_cases.push_back(std::move(tc));
  }
  merged.executions += solved.executions;
  merged.model_iterations += solved.model_iterations;
  merged.elapsed_s += solved.elapsed_s;

  // Union coverage of both phases for the report.
  DynamicBitset total = fuzz_cov.total();
  total.MergeAndCountNew(solver.sink().total());
  auto evals = fuzz_cov.evals();
  for (std::size_t d = 0; d < evals.size(); ++d) {
    for (auto e : solver.sink().evals()[d]) evals[d].insert(e);
  }
  merged.report = coverage::ComputeReportFrom(cm.spec(), total, evals);
  return merged;
}

}  // namespace

fuzz::CampaignResult RunTool(CompiledModel& cm, Tool tool, const fuzz::FuzzBudget& budget,
                             std::uint64_t seed, obs::CampaignTelemetry* telemetry,
                             coverage::ProvenanceMap* provenance,
                             coverage::MarginRecorder* margins) {
  obs::ScopedTimer span(StrFormat("tool.%s", std::string(ToolName(tool)).c_str()));
  switch (tool) {
    case Tool::kSldv: {
      sldv::SolverOptions options;
      options.seed = seed;
      sldv::GoalSolver solver(cm.instrumented(), cm.spec(), options);
      solver.SeedInputRanges(cm.analysis().inport_ranges);
      return solver.Run(budget);
    }
    case Tool::kSimCoTest: {
      simcotest::SimCoTestOptions options;
      options.seed = seed;
      simcotest::SimCoTest tool_impl(cm.scheduled(), options);
      return tool_impl.Run(budget);
    }
    case Tool::kCftcg: {
      fuzz::FuzzerOptions options;
      options.seed = seed;
      options.model_oriented = true;
      options.telemetry = telemetry;
      options.provenance = provenance;
      options.margins = margins;
      return cm.Fuzz(options, budget);
    }
    case Tool::kFuzzOnly: {
      fuzz::FuzzerOptions options;
      options.seed = seed;
      options.model_oriented = false;
      options.telemetry = telemetry;
      options.provenance = provenance;
      options.margins = margins;
      return cm.Fuzz(options, budget);
    }
    case Tool::kCftcgNoIdc: {
      fuzz::FuzzerOptions options;
      options.seed = seed;
      options.model_oriented = true;
      options.use_idc_energy = false;
      options.telemetry = telemetry;
      options.provenance = provenance;
      options.margins = margins;
      return cm.Fuzz(options, budget);
    }
    case Tool::kCftcgHybrid: return RunHybrid(cm, budget, seed, telemetry, provenance, margins);
  }
  return {};
}

AveragedMetrics RunAveraged(CompiledModel& cm, Tool tool, const fuzz::FuzzBudget& budget,
                            std::uint64_t seed, int reps) {
  AveragedMetrics avg;
  for (int r = 0; r < reps; ++r) {
    obs::Registry registry;
    obs::CampaignTelemetry telemetry;
    telemetry.registry = &registry;
    const auto result =
        RunTool(cm, tool, budget, seed + static_cast<std::uint64_t>(r), &telemetry);
    const obs::RegistrySnapshot snap = registry.Snapshot();
    avg.decision_pct += result.report.DecisionPct();
    avg.condition_pct += result.report.ConditionPct();
    avg.mcdc_pct += result.report.McdcPct();
    avg.executions += static_cast<double>(result.executions);
    avg.iterations += static_cast<double>(result.model_iterations);
    avg.exec_per_s += snap.GaugeValue(
        "fuzz.exec_per_s",
        result.elapsed_s > 0 ? static_cast<double>(result.executions) / result.elapsed_s : 0);
  }
  const double n = reps > 0 ? reps : 1;
  avg.decision_pct /= n;
  avg.condition_pct /= n;
  avg.mcdc_pct /= n;
  avg.executions /= n;
  avg.iterations /= n;
  avg.exec_per_s /= n;
  return avg;
}

}  // namespace cftcg
