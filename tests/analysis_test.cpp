// Tests of the static model analyzer: interval fixpoint verdicts, lint
// diagnostics, justified-objective accounting, the analyzer-driven fuzzer
// features (early stop, boundary seeds), and the soundness property that no
// dynamically hit objective is ever proved unreachable.
#include <gtest/gtest.h>

#include <set>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "fuzz/fuzzer.hpp"
#include "ir/builder.hpp"
#include "obs/json.hpp"
#include "sldv/goal_solver.hpp"

namespace cftcg::analysis {
namespace {

using coverage::ObjectiveVerdict;
using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;

std::unique_ptr<CompiledModel> Compile(std::unique_ptr<ir::Model> model) {
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

/// Finds the decision whose name contains `fragment`; fails the test when
/// absent.
const coverage::Decision* FindDecision(const coverage::CoverageSpec& spec,
                                       const std::string& fragment) {
  for (const auto& d : spec.decisions()) {
    if (d.name.find(fragment) != std::string::npos) return &d;
  }
  ADD_FAILURE() << "no decision matching '" << fragment << "'";
  return nullptr;
}

TEST(AnalyzerTest, ConstantSwitchProvesDeadBranch) {
  // The switch control is the constant 0 (< threshold 0.5), so the control
  // is definitely false: outcome 0 (take first input) can never happen.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto sw = mb.Switch(u, mb.Constant(0.0), mb.Constant(5.0), 0.5, "sel");
  mb.Outport("y", sw);
  auto cm = Compile(mb.Build());

  const ModelAnalysis& ma = cm->analysis();
  EXPECT_TRUE(ma.converged);
  const auto* d = FindDecision(cm->spec(), "sel");
  ASSERT_NE(d, nullptr);
  const int slot_true = cm->spec().OutcomeSlot(d->id, 0);
  const int slot_false = cm->spec().OutcomeSlot(d->id, 1);
  EXPECT_EQ(ma.justifications.SlotVerdict(slot_true), ObjectiveVerdict::kProvedUnreachable);
  EXPECT_FALSE(ma.justifications.SlotReason(slot_true).empty());
  // The surviving outcome is the decision's only behavior: trivial, but
  // coverable — it must NOT be excluded from the frontier.
  EXPECT_EQ(ma.justifications.SlotVerdict(slot_false), ObjectiveVerdict::kTriviallyConstant);
  EXPECT_FALSE(ma.justifications.SlotExcluded(slot_false));

  bool saw_lint = false;
  for (const auto& l : ma.lints) saw_lint |= l.check == "constant-switch";
  EXPECT_TRUE(saw_lint) << "expected a constant-switch lint";
}

TEST(AnalyzerTest, ClampedInputNeverSaturates) {
  // The upstream clamp bounds the signal to [0, 100]; the outer saturation
  // at [-5, 200] then never fires on either side (NaN would pass through to
  // the inside branch, so the pass-through outcome stays feasible).
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto clamped = mb.Saturation(u, 0.0, 100.0, "clamp");
  mb.Outport("y", mb.Saturation(clamped, -5.0, 200.0, "sat"));
  auto cm = Compile(mb.Build());

  const ModelAnalysis& ma = cm->analysis();
  ASSERT_TRUE(ma.converged);
  const auto* d = FindDecision(cm->spec(), "sat");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->num_outcomes, 3);
  EXPECT_TRUE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 0)));  // below
  EXPECT_FALSE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 1)));
  EXPECT_TRUE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 2)));  // above

  bool saw_lint = false;
  for (const auto& l : ma.lints) saw_lint |= l.check == "never-saturates";
  EXPECT_TRUE(saw_lint);
}

TEST(AnalyzerTest, ClampedIntegerLimitsProveSaturationDead) {
  // Integer saturation limits past the block dtype clamp to its range in
  // every engine: for int8, -500 and 500 read as -128 and 127, so no input
  // saturates and only the pass-through outcome is reachable. The analyzer
  // must see the clamped limits, not the +-500 the model author wrote.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt8);
  mb.Outport("y", mb.Saturation(u, -500, 500, "sat"));
  auto cm = Compile(mb.Build());

  const ModelAnalysis& ma = cm->analysis();
  ASSERT_TRUE(ma.converged);
  const auto* d = FindDecision(cm->spec(), "sat");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->num_outcomes, 3);
  EXPECT_TRUE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 0)));
  EXPECT_FALSE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 1)));  // inside
  EXPECT_TRUE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 2)));

  bool saw_lint = false;
  for (const auto& l : ma.lints) saw_lint |= l.check == "never-saturates";
  EXPECT_TRUE(saw_lint);
}

TEST(AnalyzerTest, InvertedLimitsProveMiddleDead) {
  // lower > upper: every input saturates (u < 20 reads the lower limit,
  // anything else exceeds -20), so the pass-through outcome is dead.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt8);
  mb.Outport("y", mb.Saturation(u, 20, -20, "sat"));
  auto cm = Compile(mb.Build());

  const ModelAnalysis& ma = cm->analysis();
  ASSERT_TRUE(ma.converged);
  const auto* d = FindDecision(cm->spec(), "sat");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 0)));
  EXPECT_TRUE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 1)));  // inside
  EXPECT_FALSE(ma.justifications.SlotExcluded(cm->spec().OutcomeSlot(d->id, 2)));

  bool saw_lint = false;
  for (const auto& l : ma.lints) saw_lint |= l.check == "always-saturating";
  EXPECT_TRUE(saw_lint);
}

TEST(AnalyzerTest, UnboundedInputsStayUnknown) {
  // A double inport spans the whole range (and may be NaN): both outcomes
  // of a plain comparison are feasible, so nothing may be justified.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto cmp = mb.Relational("gt", u, mb.Constant(10.0), "cmp");
  mb.Outport("y", mb.Switch(mb.Constant(1.0), cmp, mb.Constant(0.0), 0.5, "sel"));
  auto cm = Compile(mb.Build());

  const ModelAnalysis& ma = cm->analysis();
  EXPECT_TRUE(ma.converged);
  EXPECT_EQ(ma.justifications.NumExcluded(), 0U);
}

TEST(AnalyzerTest, DeadBlockLint) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  mb.Gain(u, 2.0, "unused");  // output connected to nothing
  mb.Outport("y", mb.Gain(u, 3.0, "used"));
  auto cm = Compile(mb.Build());

  bool saw = false;
  for (const auto& l : cm->analysis().lints) {
    if (l.check == "dead-block" && l.block.find("unused") != std::string::npos) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(AnalyzerTest, InportRangesCoverComparisonThresholds) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto cmp = mb.Relational("gt", u, mb.Constant(250.0), "cmp");
  mb.Outport("y", mb.Switch(mb.Constant(1.0), cmp, mb.Constant(0.0), 0.5, "sel"));
  auto cm = Compile(mb.Build());

  const ModelAnalysis& ma = cm->analysis();
  ASSERT_EQ(ma.inport_ranges.size(), 1U);
  // The heuristic range must straddle the threshold the inport feeds, so
  // boundary seeds / solver candidates can land on both sides of it.
  EXPECT_LT(ma.inport_ranges[0].lo(), 250.0);
  EXPECT_GT(ma.inport_ranges[0].hi(), 250.0);
}

TEST(AnalysisReportTest, JsonRoundTrips) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt8);
  mb.Outport("y", mb.Saturation(u, -500, 500, "sat"));
  auto cm = Compile(mb.Build());

  const std::string json = AnalysisReportJson(cm->scheduled(), cm->analysis());
  const auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.message() << "\n" << json;
  const obs::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.StringOr("model", ""), "m");
  const obs::JsonValue* converged = doc.Find("converged");
  ASSERT_NE(converged, nullptr);
  ASSERT_EQ(converged->kind, obs::JsonValue::Kind::kBool);
  EXPECT_TRUE(converged->boolean);
  const obs::JsonValue* objectives = doc.Find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_EQ(objectives->kind, obs::JsonValue::Kind::kArray);
  bool saw_unreachable = false;
  for (const auto& o : objectives->items) {
    if (o.StringOr("verdict", "") == "proved_unreachable") {
      saw_unreachable = true;
      EXPECT_FALSE(o.StringOr("reason", "").empty());
    }
  }
  EXPECT_TRUE(saw_unreachable);
  const obs::JsonValue* ranges = doc.Find("inport_ranges");
  ASSERT_NE(ranges, nullptr);
  EXPECT_EQ(ranges->items.size(), 1U);

  // The human rendering mentions the same verdict.
  const std::string text = FormatAnalysisReport(cm->scheduled(), cm->analysis());
  EXPECT_NE(text.find("proved_unreachable"), std::string::npos);
}

TEST(AnalyzerFuzzTest, JustificationsStopCampaignWhenFrontierExhausted) {
  // The clamped int8 limits prove both saturating outcomes unreachable; the
  // pass-through outcome is hit by the very first seed, after which the
  // campaign must stop on its own long before the execution budget.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt8);
  mb.Outport("y", mb.Saturation(u, -500, 500, "sat"));
  auto cm = Compile(mb.Build());
  const ModelAnalysis& ma = cm->analysis();
  ASSERT_EQ(ma.justifications.NumExcluded(), 2U);

  fuzz::FuzzerOptions options;
  options.seed = 3;
  options.justifications = &ma.justifications;
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 30.0;
  budget.max_executions = 1'000'000;
  const auto result = fuzzer.Run(budget);
  EXPECT_LE(result.executions, options.seed_inputs + 16);
  // The report carries the justified counts and the adjusted percentages
  // reach 100% even though the raw denominators do not.
  EXPECT_EQ(result.report.outcome_justified, 2);
  EXPECT_LT(result.report.DecisionPct(), 100.0);
  EXPECT_DOUBLE_EQ(result.report.AdjustedDecisionPct(), 100.0);
}

TEST(AnalyzerFuzzTest, BoundarySeedsHitExactThreshold) {
  // u == 1234567 is effectively unreachable by random int32 mutation in a
  // small budget; a boundary seed range pinned to the value hits it in the
  // seed corpus.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  auto eq = mb.Relational("eq", u, mb.Constant(1234567, DType::kInt32), "eq");
  mb.Outport("y", mb.Switch(mb.Constant(1.0), eq, mb.Constant(0.0), 0.5, "sel"));
  auto cm = Compile(mb.Build());

  fuzz::FuzzerOptions options;
  options.seed = 5;
  options.boundary_seed_ranges.push_back(fuzz::FieldRange{1234567.0, 1234567.0, true});
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 10.0;
  budget.max_executions = 300;
  const auto result = fuzzer.Run(budget);
  EXPECT_EQ(result.report.outcome_covered, result.report.outcome_total)
      << "boundary seed should cover the == branch";
}

TEST(AnalyzerSolverTest, SeededInputRangePinsSolverCandidates) {
  // With the search range pinned to the exact value, every solver candidate
  // is 42 and the equality goal is covered immediately.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  auto eq = mb.Relational("eq", u, mb.Constant(42, DType::kInt32), "eq");
  mb.Outport("y", mb.Switch(mb.Constant(1.0), eq, mb.Constant(0.0), 0.5, "sel"));
  auto cm = Compile(mb.Build());

  sldv::SolverOptions so;
  so.seed = 9;
  so.horizon = 2;
  sldv::GoalSolver solver(cm->instrumented(), cm->spec(), so);
  solver.SeedInputRanges({sldv::Interval(42.0, 42.0)});
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 10.0;
  budget.max_executions = 200;
  const auto result = solver.Run(budget);
  // The comparison feeds the switch control, so it is a condition of the
  // switch's decision rather than a decision of its own; the == path is the
  // switch's outcome 0 (control true -> first input).
  const auto* d = FindDecision(cm->spec(), "sel");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(
      solver.sink().total().Test(static_cast<std::size_t>(cm->spec().OutcomeSlot(d->id, 0))));
}

// Soundness property over the whole benchmark suite: fuzz each model and
// check that no slot the campaign actually hit carries a proved-unreachable
// verdict. This is the analyzer's core contract — an unsound justification
// silently deflates the adjusted coverage denominator.
TEST(AnalyzerSoundnessTest, FuzzedCoverageNeverContradictsVerdicts) {
  std::size_t total_justified = 0;
  for (const auto& info : bench_models::Roster()) {
    auto model = bench_models::Build(info.name);
    ASSERT_TRUE(model.ok()) << info.name;
    auto cm = Compile(model.take());
    const ModelAnalysis& ma = cm->analysis();
    EXPECT_TRUE(ma.converged) << info.name;
    total_justified += ma.justifications.NumExcluded();

    fuzz::FuzzerOptions options;
    options.seed = 1234;
    fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
    fuzz::FuzzBudget budget;
    budget.wall_seconds = 2.0;
    budget.max_executions = 30'000;
    fuzzer.Run(budget);

    const DynamicBitset& hit = fuzzer.sink().total();
    for (int slot = 0; slot < cm->spec().FuzzBranchCount(); ++slot) {
      if (!hit.Test(static_cast<std::size_t>(slot))) continue;
      EXPECT_FALSE(ma.justifications.SlotExcluded(slot))
          << info.name << " slot " << slot << " was hit by fuzzing but justified as '"
          << ma.justifications.SlotReason(slot) << "'";
    }
  }
  // The acceptance bar: at least one benchmark model has at least one
  // justified objective with a human-readable reason.
  EXPECT_GT(total_justified, 0U);
}

TEST(AnalyzerSoundnessTest, BenchModelJustificationsCarryReasons) {
  auto model = bench_models::Build("SolarPV");
  ASSERT_TRUE(model.ok());
  auto cm = Compile(model.take());
  const ModelAnalysis& ma = cm->analysis();
  std::size_t with_reason = 0;
  for (int slot = 0; slot < cm->spec().FuzzBranchCount(); ++slot) {
    if (!ma.justifications.SlotExcluded(slot)) continue;
    EXPECT_FALSE(ma.justifications.SlotReason(slot).empty());
    ++with_reason;
  }
  EXPECT_GT(with_reason, 0U);
}

// Determinism: analyzing the same model twice yields identical verdicts and
// ranges (the analyzer is pure; CompiledModel::analysis() caches it).
TEST(AnalyzerTest, DeterministicAcrossRuns) {
  auto m1 = bench_models::Build("TCP");
  auto m2 = bench_models::Build("TCP");
  ASSERT_TRUE(m1.ok() && m2.ok());
  auto cm1 = Compile(m1.take());
  auto cm2 = Compile(m2.take());
  const ModelAnalysis& a = cm1->analysis();
  const ModelAnalysis& b = cm2->analysis();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.inport_ranges.size(), b.inport_ranges.size());
  for (std::size_t i = 0; i < a.inport_ranges.size(); ++i) {
    EXPECT_EQ(a.inport_ranges[i].lo(), b.inport_ranges[i].lo());
    EXPECT_EQ(a.inport_ranges[i].hi(), b.inport_ranges[i].hi());
  }
  for (int slot = 0; slot < cm1->spec().FuzzBranchCount(); ++slot) {
    EXPECT_EQ(a.justifications.SlotVerdict(slot), b.justifications.SlotVerdict(slot)) << slot;
    EXPECT_EQ(a.justifications.SlotReason(slot), b.justifications.SlotReason(slot)) << slot;
  }
}

}  // namespace
}  // namespace cftcg::analysis
