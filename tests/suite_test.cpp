// Tests of test-suite post-processing (minimization + greedy reduction).
#include <gtest/gtest.h>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "fuzz/suite.hpp"
#include "ir/builder.hpp"

namespace cftcg::fuzz {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;
using ir::Value;

std::unique_ptr<CompiledModel> SatModel() {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  mb.Outport("y", mb.Saturation(u, -100, 100, "sat"));
  return CompiledModel::FromModel(mb.Build()).take();
}

std::vector<std::uint8_t> TuplesOf(std::initializer_list<std::int32_t> values) {
  std::vector<std::uint8_t> data;
  for (auto v : values) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    data.insert(data.end(), p, p + 4);
  }
  return data;
}

TEST(SuiteTest, CoverageOfCountsSlots) {
  auto cm = SatModel();
  vm::Machine machine(cm->instrumented());
  const auto cov = CoverageOf(machine, cm->spec(), TuplesOf({0}));
  EXPECT_EQ(cov.Count(), 1U);  // only the "within" outcome
  const auto cov3 = CoverageOf(machine, cm->spec(), TuplesOf({-500, 0, 500}));
  EXPECT_EQ(cov3.Count(), 3U);
}

TEST(SuiteTest, MinimizeDropsDeadIterations) {
  auto cm = SatModel();
  vm::Machine machine(cm->instrumented());
  // 8 tuples, but only one (the 500) is needed to cover the "above" slot.
  const auto data = TuplesOf({1, 2, 3, 500, 4, 5, 6, 7});
  // must_cover: just the "above" outcome.
  DynamicBitset need(static_cast<std::size_t>(cm->spec().FuzzBranchCount()));
  need.Set(static_cast<std::size_t>(cm->spec().OutcomeSlot(0, 2)));
  const auto shrunk = MinimizeTestCase(machine, cm->spec(), data, need);
  EXPECT_EQ(shrunk.size(), 4U);  // a single tuple survives
  const auto cov = CoverageOf(machine, cm->spec(), shrunk);
  EXPECT_TRUE(cov.Test(static_cast<std::size_t>(cm->spec().OutcomeSlot(0, 2))));
}

TEST(SuiteTest, MinimizePreservesSequentialPrefix) {
  // Counter wrap at 3 requires 4 enable=1 tuples in sequence: minimization
  // must not drop below that.
  ModelBuilder mb("m");
  auto en = mb.Inport("en", DType::kBool);
  ir::ParamMap p;
  p.Set("limit", ir::ParamValue(3));
  auto c = mb.Op(BlockKind::kCounterLimited, "c", {en}, std::move(p));
  mb.Outport("y", c);
  auto cm = CompiledModel::FromModel(mb.Build()).take();
  vm::Machine machine(cm->instrumented());

  std::vector<std::uint8_t> data(12, 1);  // 12 enabled tuples (bool = 1 byte)
  DynamicBitset need(static_cast<std::size_t>(cm->spec().FuzzBranchCount()));
  need.Set(static_cast<std::size_t>(cm->spec().OutcomeSlot(0, 0)));  // wrap outcome
  const auto shrunk = MinimizeTestCase(machine, cm->spec(), data, need);
  EXPECT_EQ(shrunk.size(), 4U);  // exactly the 4 steps needed to wrap
  EXPECT_TRUE(CoverageOf(machine, cm->spec(), shrunk)
                  .Test(static_cast<std::size_t>(cm->spec().OutcomeSlot(0, 0))));
}

TEST(SuiteTest, ReduceSuiteKeepsUnionCoverage) {
  auto cm = SatModel();
  vm::Machine machine(cm->instrumented());
  std::vector<TestCase> suite;
  for (std::int32_t v : {0, 1, 2, -500, 3, 500, -501}) {
    TestCase tc;
    tc.data = TuplesOf({v});
    suite.push_back(std::move(tc));
  }
  const auto reduced = ReduceSuite(machine, cm->spec(), suite);
  // Three slots need exactly three representatives.
  EXPECT_EQ(reduced.kept.size(), 3U);
  EXPECT_EQ(reduced.union_coverage.Count(), 3U);
}

TEST(SuiteTest, ReduceRealCampaignSuite) {
  auto model = bench_models::Build("TWC").take();
  auto cm = CompiledModel::FromModel(std::move(model)).take();
  FuzzerOptions options;
  options.seed = 4;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 1.0;
  budget.max_executions = 3000;
  const auto result = fuzzer.Run(budget);
  ASSERT_GT(result.test_cases.size(), 1U);

  vm::Machine machine(cm->instrumented());
  const auto reduced = ReduceSuite(machine, cm->spec(), result.test_cases);
  EXPECT_LE(reduced.kept.size(), result.test_cases.size());
  // Union of the reduced suite equals the union of the full suite.
  DynamicBitset full(static_cast<std::size_t>(cm->spec().FuzzBranchCount()));
  for (const auto& tc : result.test_cases) {
    full.MergeAndCountNew(CoverageOf(machine, cm->spec(), tc.data));
  }
  EXPECT_EQ(reduced.union_coverage, full);

  // Minimizing each kept case preserves the union too.
  DynamicBitset after(static_cast<std::size_t>(cm->spec().FuzzBranchCount()));
  for (std::size_t idx : reduced.kept) {
    const auto need = CoverageOf(machine, cm->spec(), result.test_cases[idx].data);
    const auto shrunk = MinimizeTestCase(machine, cm->spec(), result.test_cases[idx].data, need);
    EXPECT_LE(shrunk.size(), result.test_cases[idx].data.size());
    after.MergeAndCountNew(CoverageOf(machine, cm->spec(), shrunk));
  }
  EXPECT_EQ(after, full);
}

}  // namespace
}  // namespace cftcg::fuzz
