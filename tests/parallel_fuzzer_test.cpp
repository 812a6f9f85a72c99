// Determinism suite for the parallel multi-worker fuzzing engine.
//
// The contracts under test:
//   * a one-worker ParallelFuzzer campaign (what -j1 runs) is bit-identical
//     to a bare Fuzzer::Run for the same seed (test cases byte for byte, same
//     executions, same coverage report) — on both a CFTCG-mode and a
//     Fuzz-Only-mode campaign, on two Table 2 models;
//   * a multi-worker campaign is deterministic: same seed + same worker
//     count => identical coverage report, identical sorted corpus
//     signature set, identical test-case bytes, identical merged
//     provenance — regardless of thread scheduling;
//   * iteration accounting: measurement re-runs and cross-worker imports
//     are booked as measure_iterations, never as throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "coverage/provenance.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"

namespace cftcg::fuzz {
namespace {

std::unique_ptr<CompiledModel> Compile(const char* name) {
  auto model = bench_models::Build(name);
  EXPECT_TRUE(model.ok()) << model.message();
  auto cm = CompiledModel::FromModel(model.take());
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

FuzzBudget ExecBudget(std::uint64_t max_executions) {
  FuzzBudget budget;
  budget.wall_seconds = 600;  // executions bound the campaign, not the clock
  budget.max_executions = max_executions;
  return budget;
}

void ExpectSameCampaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.model_iterations, b.model_iterations);
  EXPECT_EQ(a.measure_iterations, b.measure_iterations);
  EXPECT_EQ(a.report.outcome_covered, b.report.outcome_covered);
  EXPECT_EQ(a.report.condition_polarity_covered, b.report.condition_polarity_covered);
  EXPECT_EQ(a.report.mcdc_covered, b.report.mcdc_covered);
  ASSERT_EQ(a.test_cases.size(), b.test_cases.size());
  for (std::size_t i = 0; i < a.test_cases.size(); ++i) {
    EXPECT_EQ(a.test_cases[i].data, b.test_cases[i].data) << "test case " << i;
  }
}

void CheckSingleWorkerMatchesSequential(const char* model, bool model_oriented) {
  auto cm = Compile(model);
  FuzzerOptions options;
  options.seed = 99;
  options.model_oriented = model_oriented;
  const FuzzBudget budget = ExecBudget(400);
  const vm::Program* fo = model_oriented ? nullptr : &cm->fuzz_only();

  Fuzzer sequential(cm->instrumented(), cm->spec(), options, fo);
  const CampaignResult seq = sequential.Run(budget);

  ParallelOptions par;
  par.num_workers = 1;
  ParallelFuzzer parallel(cm->instrumented(), cm->spec(), options, par, fo);
  const ParallelCampaignResult pr = parallel.Run(budget);

  ExpectSameCampaign(seq, pr.merged);
  EXPECT_EQ(pr.imports, 0U);
}

TEST(ParallelIdentityTest, OneWorkerMatchesSequentialAfcCftcg) {
  CheckSingleWorkerMatchesSequential("AFC", /*model_oriented=*/true);
}

TEST(ParallelIdentityTest, OneWorkerMatchesSequentialAfcFuzzOnly) {
  CheckSingleWorkerMatchesSequential("AFC", /*model_oriented=*/false);
}

TEST(ParallelIdentityTest, OneWorkerMatchesSequentialTcpCftcg) {
  CheckSingleWorkerMatchesSequential("TCP", /*model_oriented=*/true);
}

TEST(ParallelIdentityTest, OneWorkerMatchesSequentialTcpFuzzOnly) {
  CheckSingleWorkerMatchesSequential("TCP", /*model_oriented=*/false);
}

ParallelCampaignResult RunParallel(CompiledModel& cm, std::uint64_t seed, int workers,
                                   coverage::ProvenanceMap* prov = nullptr) {
  FuzzerOptions options;
  options.seed = seed;
  options.model_oriented = true;
  options.provenance = prov;
  ParallelOptions par;
  par.num_workers = workers;
  par.sync_every = 64;  // several rounds within the small budget
  ParallelFuzzer fuzzer(cm.instrumented(), cm.spec(), options, par);
  return fuzzer.Run(ExecBudget(900));
}

TEST(ParallelDeterminismTest, SameSeedSameWorkersReproducesCampaign) {
  auto cm = Compile("TCP");
  coverage::ProvenanceMap prov_a(cm->spec());
  coverage::ProvenanceMap prov_b(cm->spec());
  const ParallelCampaignResult a = RunParallel(*cm, 7, 3, &prov_a);
  const ParallelCampaignResult b = RunParallel(*cm, 7, 3, &prov_b);

  ExpectSameCampaign(a.merged, b.merged);
  EXPECT_EQ(a.corpus_signatures, b.corpus_signatures);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.imports, b.imports);
  EXPECT_EQ(a.worker_executions, b.worker_executions);

  // Merged first-hit attribution is part of the deterministic contract:
  // same objectives, discoverers, iterations and chains, in the same order.
  ASSERT_EQ(prov_a.num_covered(), prov_b.num_covered());
  for (std::size_t i = 0; i < prov_a.hits().size(); ++i) {
    const auto& ha = prov_a.hits()[i];
    const auto& hb = prov_b.hits()[i];
    EXPECT_EQ(ha.kind, hb.kind);
    EXPECT_EQ(ha.name, hb.name);
    EXPECT_EQ(ha.slot, hb.slot);
    EXPECT_EQ(ha.outcome, hb.outcome);
    EXPECT_EQ(ha.iteration, hb.iteration);
    EXPECT_EQ(ha.chain, hb.chain);
  }
}

TEST(ParallelDeterminismTest, WorkersSyncCorpusAndSplitBudgetExactly) {
  auto cm = Compile("TCP");
  const ParallelCampaignResult r = RunParallel(*cm, 11, 3);
  // The execution budget splits exactly across workers (remainder to the
  // first workers), and every worker ran.
  ASSERT_EQ(r.worker_executions.size(), 3U);
  EXPECT_EQ(r.worker_executions[0] + r.worker_executions[1] + r.worker_executions[2], 900U);
  EXPECT_EQ(r.merged.executions, 900U);
  // Seed corpora alone guarantee cross-worker imports at the first barrier.
  EXPECT_GT(r.imports, 0U);
  // Signatures were collected (forced on for multi-worker) and deduped.
  EXPECT_GT(r.corpus_signatures.size(), 1U);
  // Imports replay on the instrumented program: booked as measurement.
  EXPECT_GT(r.merged.measure_iterations, 0U);
}

TEST(ParallelDeterminismTest, DifferentSeedsDiverge) {
  auto cm = Compile("TCP");
  const ParallelCampaignResult a = RunParallel(*cm, 7, 3);
  const ParallelCampaignResult b = RunParallel(*cm, 8, 3);
  EXPECT_NE(a.corpus_signatures, b.corpus_signatures);
}

TEST(IterationAccountingTest, FuzzOnlyMeasurementBookedSeparately) {
  auto cm = Compile("AFC");
  FuzzerOptions options;
  options.seed = 5;
  options.model_oriented = false;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options, &cm->fuzz_only());
  const CampaignResult r = fuzzer.Run(ExecBudget(300));
  // Every input that triggered new edge coverage was re-run once on the
  // instrumented program; those iterations — sum of the test cases' tuple
  // counts — are booked as measure_iterations, not throughput.
  const std::size_t tuple = cm->instrumented().TupleSize();
  std::uint64_t expected = 0;
  for (const auto& tc : r.test_cases) expected += tc.data.size() / tuple;
  EXPECT_EQ(r.measure_iterations, expected);
  EXPECT_GT(r.measure_iterations, 0U);
  EXPECT_GT(r.model_iterations, 0U);
}

// The crash-isolated engine must be a drop-in for the threaded one: with no
// faults injected, forked workers exchanging checkpoint-format messages over
// pipes reach the exact same merged campaign as threads sharing memory.
// (supervisor_test.cpp covers the model-oriented and faulted cases; this one
// pins the fuzz-only mode, where imports trigger measurement re-runs.)
TEST(ParallelIdentityTest, SupervisedEngineMatchesThreadedEngineFuzzOnly) {
  auto cm = Compile("AFC");
  FuzzerOptions options;
  options.seed = 31;
  options.model_oriented = false;
  const FuzzBudget budget = ExecBudget(600);

  ParallelOptions par;
  par.num_workers = 2;
  par.sync_every = 64;
  ParallelFuzzer threaded(cm->instrumented(), cm->spec(), options, par, &cm->fuzz_only());
  const ParallelCampaignResult t = threaded.Run(budget);

  SupervisorOptions sup;
  sup.num_workers = 2;
  sup.sync_every = 64;
  Supervisor supervised(cm->instrumented(), cm->spec(), options, sup, &cm->fuzz_only());
  const SupervisedCampaignResult s = supervised.Run(budget);

  ExpectSameCampaign(t.merged, s.merged);
  EXPECT_EQ(t.merged.corpus_fingerprint, s.merged.corpus_fingerprint);
  EXPECT_EQ(t.merged.coverage_fingerprint, s.merged.coverage_fingerprint);
  EXPECT_EQ(t.corpus_signatures, s.corpus_signatures);
  EXPECT_EQ(t.worker_executions, s.worker_executions);
  EXPECT_EQ(t.imports, s.imports);
  EXPECT_EQ(s.crashes, 0U);
  EXPECT_EQ(s.restarts, 0U);
}

// Branch distances are recorded per lane and merged slot by slot (the
// smaller wins). One lane runs the campaign seed itself, so its merge must
// equal the sequential recorder; three lanes must record something.
TEST(ParallelMarginTest, LaneDistancesMergeToTheSequentialOnes) {
  auto cm = Compile("AFC");
  const FuzzBudget budget = ExecBudget(600);
  coverage::MarginRecorder seq_margins;
  FuzzerOptions options;
  options.seed = 17;
  options.margins = &seq_margins;
  Fuzzer(cm->instrumented(), cm->spec(), options).Run(budget);

  coverage::MarginRecorder one_lane;
  options.margins = &one_lane;
  ParallelOptions par;
  par.num_workers = 1;
  ParallelFuzzer(cm->instrumented(), cm->spec(), options, par).Run(budget);
  ASSERT_EQ(seq_margins.distances().size(),
            static_cast<std::size_t>(cm->spec().num_outcome_slots()));
  EXPECT_EQ(one_lane.distances(), seq_margins.distances());

  coverage::MarginRecorder three_lanes;
  options.margins = &three_lanes;
  par.num_workers = 3;
  par.sync_every = 64;
  ParallelFuzzer(cm->instrumented(), cm->spec(), options, par).Run(budget);
  const auto& dist = three_lanes.distances();
  ASSERT_EQ(dist.size(), seq_margins.distances().size());
  EXPECT_TRUE(std::any_of(dist.begin(), dist.end(), [](double d) {
    return d > 0 && d < coverage::MarginRecorder::kUnreached;
  })) << "no lane recorded a finite distance";
}

TEST(IterationAccountingTest, CftcgModeHasNoMeasurementReruns) {
  auto cm = Compile("AFC");
  FuzzerOptions options;
  options.seed = 5;
  options.model_oriented = true;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  const CampaignResult r = fuzzer.Run(ExecBudget(300));
  EXPECT_EQ(r.measure_iterations, 0U);
  EXPECT_GT(r.model_iterations, 0U);
}

}  // namespace
}  // namespace cftcg::fuzz
