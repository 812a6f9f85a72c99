// Tests of the model-oriented fuzzing loop and Algorithm 1.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "ir/builder.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "support/strings.hpp"

namespace cftcg::fuzz {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;
using ir::ParamMap;
using ir::ParamValue;

std::unique_ptr<CompiledModel> Compile(std::unique_ptr<ir::Model> model) {
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

/// A model whose chart alternates between two branch sets on consecutive
/// iterations when driven with a toggling input — ideal for checking the
/// Iteration Difference Coverage metric.
std::unique_ptr<ir::Model> TogglerModel() {
  ModelBuilder mb("toggler");
  auto u = mb.Inport("u", DType::kInt8);
  auto sw = mb.Switch(mb.Constant(1.0), u, mb.Constant(0.0), 1.0, "sw");
  mb.Outport("y", sw);
  return mb.Build();
}

TEST(Algorithm1Test, IdcMetricCountsIterationDifferences) {
  auto cm = Compile(TogglerModel());
  FuzzerOptions options;
  options.seed = 1;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);

  // Branch space: switch outcomes {0,1}. A constant stream visits the same
  // outcome every iteration: differences only at the first iteration.
  std::vector<std::uint8_t> constant(8, 5);  // 8 tuples of value 5 (>=1: outcome 0)
  bool found_new = false;
  std::size_t new_slots = 0;
  std::size_t metric = fuzzer.RunOneInstrumented(constant, &found_new, &new_slots);
  EXPECT_TRUE(found_new);
  EXPECT_EQ(new_slots, 1U);
  // Iteration 1 differs from empty lastCov by 1 slot; later iterations are
  // identical: metric == 1.
  EXPECT_EQ(metric, 1U);

  // A toggling stream flips the covered slot every iteration: each of the 8
  // iterations contributes 2 differences except the first (1).
  std::vector<std::uint8_t> toggling;
  for (int i = 0; i < 8; ++i) toggling.push_back(i % 2 == 0 ? 5 : 0);
  metric = fuzzer.RunOneInstrumented(toggling, &found_new, &new_slots);
  EXPECT_EQ(metric, 1U + 7U * 2U);
}

TEST(Algorithm1Test, TrailingPartialTupleDiscarded) {
  // int8+int32 tuple = 5 bytes; 7 bytes = 1 tuple + 2 stray bytes.
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kInt8);
  auto b = mb.Inport("b", DType::kInt32);
  mb.Outport("y", mb.Sum(a, b));
  auto cm = Compile(mb.Build());
  FuzzerOptions options;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  std::vector<std::uint8_t> data(7, 1);
  bool found_new = false;
  std::size_t new_slots = 0;
  fuzzer.RunOneInstrumented(data, &found_new, &new_slots);
  // One iteration ran; no crash on the ragged tail. (No decisions in this
  // model, so no coverage is expected at all.)
  EXPECT_FALSE(found_new);
}

TEST(FuzzerTest, CoversSaturationQuickly) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  mb.Outport("y", mb.Saturation(u, -1000, 1000, "sat"));
  auto cm = Compile(mb.Build());
  FuzzerOptions options;
  options.seed = 7;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 5.0;
  budget.max_executions = 2000;
  const auto result = fuzzer.Run(budget);
  EXPECT_EQ(result.report.outcome_covered, result.report.outcome_total);
  EXPECT_FALSE(result.test_cases.empty());
}

TEST(FuzzerTest, DeterministicGivenSeed) {
  auto model1 = bench_models::Build("AFC").take();
  auto model2 = bench_models::Build("AFC").take();
  auto cm1 = Compile(std::move(model1));
  auto cm2 = Compile(std::move(model2));
  FuzzerOptions options;
  options.seed = 99;
  FuzzBudget budget;
  budget.wall_seconds = 60.0;  // bounded by executions below
  budget.max_executions = 400;
  Fuzzer f1(cm1->instrumented(), cm1->spec(), options);
  Fuzzer f2(cm2->instrumented(), cm2->spec(), options);
  const auto r1 = f1.Run(budget);
  const auto r2 = f2.Run(budget);
  EXPECT_EQ(r1.executions, r2.executions);
  EXPECT_EQ(r1.report.outcome_covered, r2.report.outcome_covered);
  ASSERT_EQ(r1.test_cases.size(), r2.test_cases.size());
  for (std::size_t i = 0; i < r1.test_cases.size(); ++i) {
    EXPECT_EQ(r1.test_cases[i].data, r2.test_cases[i].data);
  }
}

TEST(FuzzerTest, TestCasesReplayToReportedCoverage) {
  // Replaying all output test cases on a fresh sink must reproduce at least
  // the decision-outcome coverage the campaign reported (test cases are
  // emitted exactly when new coverage appears).
  auto cm = Compile(bench_models::Build("SolarPV").take());
  FuzzerOptions options;
  options.seed = 3;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 2.0;
  budget.max_executions = 3000;
  const auto result = fuzzer.Run(budget);
  ASSERT_FALSE(result.test_cases.empty());

  vm::Machine machine(cm->instrumented());
  coverage::CoverageSink sink(cm->spec());
  const std::size_t tuple = cm->instrumented().TupleSize();
  for (const auto& tc : result.test_cases) {
    machine.Reset();
    for (std::size_t off = 0; off + tuple <= tc.data.size(); off += tuple) {
      sink.BeginIteration();
      machine.SetInputsFromBytes(tc.data.data() + off);
      machine.Step(&sink);
      sink.AccumulateIteration();
    }
  }
  const auto replayed = coverage::ComputeReport(sink);
  EXPECT_EQ(replayed.outcome_covered, result.report.outcome_covered);
}

TEST(FuzzerTest, FuzzOnlyModeRuns) {
  auto cm = Compile(bench_models::Build("SolarPV").take());
  FuzzerOptions options;
  options.seed = 5;
  options.model_oriented = false;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options, &cm->fuzz_only());
  FuzzBudget budget;
  budget.wall_seconds = 1.0;
  budget.max_executions = 1500;
  const auto result = fuzzer.Run(budget);
  EXPECT_GT(result.executions, 0U);
  EXPECT_GT(result.report.outcome_covered, 0);
}

TEST(FuzzerTest, TestCaseTimesAreMonotonic) {
  auto cm = Compile(bench_models::Build("TWC").take());
  FuzzerOptions options;
  options.seed = 11;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 1.0;
  budget.max_executions = 2000;
  const auto result = fuzzer.Run(budget);
  for (std::size_t i = 1; i < result.test_cases.size(); ++i) {
    EXPECT_LE(result.test_cases[i - 1].time_s, result.test_cases[i].time_s);
    EXPECT_LE(result.test_cases[i - 1].decision_outcomes_covered,
              result.test_cases[i].decision_outcomes_covered);
  }
}

// A campaign — heartbeats, registry, `start`/`stop` — is the round driver's
// at every -j; CompiledModel::Fuzz runs it over one lane.
TEST(FuzzerTest, TelemetryEmitsOrderedEvents) {
  auto cm = Compile(bench_models::Build("AFC").take());
  FuzzerOptions options;
  options.seed = 21;

  std::string buffer;
  obs::TraceWriter trace(&buffer);
  obs::Registry registry;
  obs::CampaignTelemetry telemetry;
  telemetry.trace = &trace;
  telemetry.registry = &registry;
  telemetry.stats_every_s = 1e-9;  // heartbeat at every round barrier
  options.telemetry = &telemetry;

  FuzzBudget budget;
  budget.wall_seconds = 5.0;
  budget.max_executions = 3000;
  const auto result = cm->Fuzz(options, budget);
  trace.Flush();

  std::vector<obs::JsonValue> events;
  for (const auto& line : SplitString(buffer, '\n')) {
    if (line.empty()) continue;
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.message() << " in: " << line;
    events.push_back(parsed.take());
  }

  // Order contract: start first, stop last, at least one stat and one new
  // coverage event between them, timestamps monotonic non-decreasing.
  ASSERT_GE(events.size(), 4U);
  EXPECT_EQ(events.front().StringOr("ev", ""), "start");
  EXPECT_EQ(events.back().StringOr("ev", ""), "stop");
  int stats = 0;
  int news = 0;
  double prev_t = -1;
  for (const auto& ev : events) {
    const std::string kind = ev.StringOr("ev", "");
    if (kind == "stat") ++stats;
    if (kind == "new") ++news;
    const double t = ev.NumberOr("t", -1);
    EXPECT_GE(t, prev_t);
    prev_t = t;
  }
  EXPECT_GE(stats, 2);  // one per 1024-execution round barrier
  EXPECT_GE(news, 1);

  // The metrics registry agrees with the campaign result.
  const obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("fuzz.executions", 0), result.executions);
  EXPECT_EQ(snap.CounterValue("fuzz.model_iterations", 0), result.model_iterations);
  EXPECT_EQ(snap.CounterValue("fuzz.new_coverage_inputs", 0),
            static_cast<std::uint64_t>(result.test_cases.size()));
  std::uint64_t applied = 0;
  for (const std::uint64_t n : result.strategy_stats.applied) applied += n;
  std::uint64_t applied_counted = 0;
  for (int s = 0; s < kNumMutationStrategies; ++s) {
    applied_counted += snap.CounterValue(
        "fuzz.strategy." + std::string(MutationStrategyName(static_cast<MutationStrategy>(s))) +
            ".applied",
        0);
  }
  EXPECT_EQ(applied_counted, applied);
}

// A bare Fuzzer writes only its per-execution events; the campaign around
// them (start, stat, stop, objective) belongs to the driver.
TEST(FuzzerTest, BareLoopTracesOnlyPerExecutionEvents) {
  auto cm = Compile(bench_models::Build("AFC").take());
  FuzzerOptions options;
  options.seed = 21;
  std::string buffer;
  obs::TraceWriter trace(&buffer);
  obs::Registry registry;
  obs::CampaignTelemetry telemetry;
  telemetry.trace = &trace;
  telemetry.registry = &registry;
  telemetry.stats_every_s = 1e-9;
  options.telemetry = &telemetry;
  coverage::ProvenanceMap prov(cm->spec());
  options.provenance = &prov;
  FuzzBudget budget;
  budget.max_executions = 300;
  Fuzzer(cm->instrumented(), cm->spec(), options).Run(budget);

  std::set<std::string> kinds;
  obs::ForEachJsonl(buffer, [&](const obs::JsonValue& ev) { kinds.insert(ev.StringOr("ev", "")); });
  EXPECT_EQ(kinds, (std::set<std::string>{"new", "frontier", "corpus"}));
  EXPECT_TRUE(registry.Snapshot().counters.empty());
  EXPECT_GT(prov.num_covered(), 0U);
}

TEST(FuzzerTest, StrategyStatsAccountApplications) {
  auto cm = Compile(bench_models::Build("AFC").take());
  FuzzerOptions options;
  options.seed = 8;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 5.0;
  budget.max_executions = 500;
  const auto result = fuzzer.Run(budget);

  std::uint64_t total_applied = 0;
  for (int s = 0; s < kNumMutationStrategies; ++s) {
    total_applied += result.strategy_stats.applied[static_cast<std::size_t>(s)];
    // A strategy cannot be credited with new coverage more often than it ran.
    EXPECT_LE(result.strategy_stats.credited[static_cast<std::size_t>(s)],
              result.strategy_stats.applied[static_cast<std::size_t>(s)])
        << MutationStrategyName(static_cast<MutationStrategy>(s));
  }
  // Every post-seed execution applies at least one strategy.
  EXPECT_GT(total_applied, 0U);
}

TEST(FuzzerTest, ProvenanceAttributesEveryCoveredSlot) {
  auto cm = Compile(bench_models::Build("AFC").take());
  FuzzerOptions options;
  options.seed = 5;
  coverage::ProvenanceMap prov(cm->spec());
  coverage::MarginRecorder margins;
  options.provenance = &prov;
  options.margins = &margins;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 5.0;
  budget.max_executions = 2000;
  fuzzer.Run(budget);

  // Every covered fuzz-branch slot has exactly one first hit, discovered by
  // a real corpus entry (slot growth always admits the input), and hits are
  // recorded in chronological order.
  const DynamicBitset& total = fuzzer.sink().total();
  std::size_t slot_hits = 0;
  std::uint64_t prev_iter = 0;
  for (const auto& h : prov.hits()) {
    if (h.kind != coverage::ObjectiveKind::kMcdcPair) {
      ASSERT_GE(h.slot, 0);
      EXPECT_TRUE(total.Test(static_cast<std::size_t>(h.slot)));
      EXPECT_GE(h.entry_id, 0);
      ++slot_hits;
    }
    EXPECT_FALSE(h.chain.empty());
    EXPECT_GE(h.iteration, prev_iter);
    prev_iter = h.iteration;
  }
  EXPECT_EQ(slot_hits, total.Count());
  EXPECT_EQ(prov.num_covered(), prov.hits().size());

  // Residual diagnostics enumerate exactly the uncovered decision outcomes,
  // under the same names UncoveredOutcomes reports.
  const auto residuals = coverage::ResidualDiagnostics(cm->spec(), total, &margins);
  const auto uncovered = coverage::UncoveredOutcomes(cm->spec(), total);
  ASSERT_EQ(residuals.size(), uncovered.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    EXPECT_EQ(residuals[i].name, uncovered[i]);
  }
}

TEST(FuzzerTest, CorpusEventsFormAWellFoundedGenealogy) {
  auto cm = Compile(bench_models::Build("AFC").take());
  FuzzerOptions options;
  options.seed = 13;

  std::string buffer;
  obs::TraceWriter trace(&buffer);
  obs::Registry registry;
  obs::CampaignTelemetry telemetry;
  telemetry.trace = &trace;
  telemetry.registry = &registry;
  options.telemetry = &telemetry;
  coverage::ProvenanceMap prov(cm->spec());
  options.provenance = &prov;

  FuzzBudget budget;
  budget.wall_seconds = 5.0;
  budget.max_executions = 1500;
  cm->Fuzz(options, budget);
  trace.Flush();

  std::vector<std::int64_t> ids;
  std::vector<std::int64_t> parents;
  std::vector<std::uint64_t> depths;
  std::vector<std::string> chains;
  std::vector<std::int64_t> objective_entries;
  const obs::JsonlStats stats = obs::ForEachJsonl(buffer, [&](const obs::JsonValue& ev) {
    const std::string kind = ev.StringOr("ev", "");
    if (kind == "corpus" || kind == "objective") {
      EXPECT_EQ(ev.NumberOr("lane", -1), 0) << kind;  // the lone lane
    }
    if (kind == "corpus") {
      ids.push_back(static_cast<std::int64_t>(ev.NumberOr("id", -2)));
      parents.push_back(static_cast<std::int64_t>(ev.NumberOr("parent", -2)));
      depths.push_back(static_cast<std::uint64_t>(ev.NumberOr("depth", 99)));
      chains.push_back(ev.StringOr("chain", ""));
    } else if (kind == "objective") {
      objective_entries.push_back(static_cast<std::int64_t>(ev.NumberOr("entry", -2)));
    }
  });
  EXPECT_EQ(stats.skipped, 0U);
  ASSERT_GE(ids.size(), options.seed_inputs);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<std::int64_t>(i));  // ids are admission order
    EXPECT_FALSE(chains[i].empty());
    if (i < options.seed_inputs) {
      EXPECT_EQ(parents[i], -1);
      EXPECT_EQ(depths[i], 0U);
      EXPECT_EQ(chains[i], "seed");
    } else {
      // Well-founded: a parent is an earlier entry, one generation up.
      ASSERT_GE(parents[i], 0);
      ASSERT_LT(parents[i], ids[i]);
      EXPECT_EQ(depths[i], depths[static_cast<std::size_t>(parents[i])] + 1);
    }
  }
  // Objective discoverers are real corpus entries (or the -1 sentinel for
  // pairs completed by unretained inputs).
  for (const std::int64_t entry : objective_entries) {
    EXPECT_GE(entry, -1);
    EXPECT_LT(entry, static_cast<std::int64_t>(ids.size()));
  }
}

TEST(CorpusTest, MaxMetricTracksAddsAndAssignsIds) {
  Corpus corpus;
  EXPECT_EQ(corpus.MaxMetric(), 0U);
  CorpusEntry a;
  a.data = {1};
  a.metric = 3;
  corpus.Add(std::move(a));
  EXPECT_EQ(corpus.MaxMetric(), 3U);
  CorpusEntry b;
  b.data = {2};
  b.metric = 1;
  corpus.Add(std::move(b));
  EXPECT_EQ(corpus.MaxMetric(), 3U);  // lower metric leaves the max alone
  CorpusEntry c;
  c.data = {3};
  c.metric = 9;
  corpus.Add(std::move(c));
  EXPECT_EQ(corpus.MaxMetric(), 9U);
  EXPECT_EQ(corpus.entry(0).id, 0);
  EXPECT_EQ(corpus.entry(1).id, 1);
  EXPECT_EQ(corpus.entry(2).id, 2);
  EXPECT_EQ(corpus.next_id(), 3);
}

TEST(CorpusTest, EnergyWeightedPickPrefersHighMetric) {
  Corpus corpus;
  CorpusEntry weak;
  weak.data = {1};
  weak.metric = 0;
  CorpusEntry strong;
  strong.data = {2};
  strong.metric = 999;
  corpus.Add(weak);
  corpus.Add(strong);
  Rng rng(17);
  int strong_picks = 0;
  for (int i = 0; i < 1000; ++i) {
    if (corpus.Pick(rng).data[0] == 2) ++strong_picks;
  }
  EXPECT_GT(strong_picks, 900);
}

}  // namespace
}  // namespace cftcg::fuzz
