// Tests of the §5/§6 extension features: the hybrid CFTCG+solver mode and
// the per-inport range constraints.
#include <gtest/gtest.h>

#include "bench_models/bench_models.hpp"
#include "cftcg/experiment.hpp"
#include "cftcg/pipeline.hpp"
#include "ir/builder.hpp"
#include "sldv/goal_solver.hpp"

namespace cftcg {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;
using ir::ParamMap;
using ir::ParamValue;

TEST(HybridTest, RunsAndReportsUnionCoverage) {
  auto cm = CompiledModel::FromModel(bench_models::Build("AFC").take()).take();
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 1.0;
  const auto hybrid = RunTool(*cm, Tool::kCftcgHybrid, budget, 3);
  EXPECT_GT(hybrid.executions, 0U);
  EXPECT_GT(hybrid.report.outcome_covered, 0);
  EXPECT_EQ(std::string(ToolName(Tool::kCftcgHybrid)), "CFTCG+solver");
}

TEST(HybridTest, SolverPhasePicksUpResidualNumericGoal) {
  // A Switch threshold at 10^6 on a double inport: the fuzzer's random
  // doubles occasionally reach it, but with a tiny fuzzing slice the solver
  // phase reliably closes it via margin-guided search.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto sw = mb.Op(BlockKind::kSwitch, "sw", {mb.Constant(1.0), u, mb.Constant(0.0)}, [] {
    ParamMap p;
    p.Set("criteria", ParamValue("ge"));
    p.Set("threshold", ParamValue(1e6));
    return p;
  }());
  mb.Outport("y", sw);
  auto cm = CompiledModel::FromModel(mb.Build()).take();
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 2.0;
  const auto hybrid = RunTool(*cm, Tool::kCftcgHybrid, budget, 1);
  EXPECT_EQ(hybrid.report.outcome_covered, hybrid.report.outcome_total);
}

TEST(HybridTest, SeedCoverageSkipsCoveredGoals) {
  auto cm = CompiledModel::FromModel(bench_models::Build("AFC").take()).take();
  // Mark everything covered: the solver then has nothing to do and returns
  // quickly with zero fresh goals.
  sldv::SolverOptions options;
  sldv::GoalSolver solver(cm->instrumented(), cm->spec(), options);
  DynamicBitset all(static_cast<std::size_t>(cm->spec().FuzzBranchCount()));
  for (std::size_t i = 0; i < all.size(); ++i) all.Set(i);
  solver.SeedCoverage(all);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 5.0;
  const auto result = solver.Run(budget);
  EXPECT_EQ(result.executions, 0U);
  EXPECT_LT(result.elapsed_s, 1.0);
}

TEST(FieldRangeTest, MutatedValuesStayInRange) {
  fuzz::TupleLayout layout({DType::kInt32, DType::kDouble});
  fuzz::TupleMutator mut(layout, 32);
  mut.SetFieldRanges({fuzz::FieldRange{0, 32768, true}, fuzz::FieldRange{-1.5, 1.5, true}});
  Rng rng(5);
  auto data = mut.RandomInput(8, rng);
  for (int round = 0; round < 300; ++round) {
    data = mut.Mutate(data, data, rng);
    if (data.empty()) data = mut.RandomInput(4, rng);
    for (std::size_t off = 0; off + layout.tuple_size() <= data.size();
         off += layout.tuple_size()) {
      const auto i32 = ir::Value::FromBytes(DType::kInt32, data.data() + off);
      EXPECT_GE(i32.AsInt64(), 0) << "round " << round;
      EXPECT_LE(i32.AsInt64(), 32768) << "round " << round;
      const auto d = ir::Value::FromBytes(DType::kDouble, data.data() + off + 4);
      EXPECT_GE(d.AsDouble(), -1.5) << "round " << round;
      EXPECT_LE(d.AsDouble(), 1.5) << "round " << round;
    }
  }
}

TEST(FieldRangeTest, InactiveRangeUnconstrained) {
  fuzz::TupleLayout layout({DType::kInt32});
  fuzz::TupleMutator mut(layout, 32);
  mut.SetFieldRanges({fuzz::FieldRange{0, 10, false}});
  Rng rng(6);
  bool out_of_range_seen = false;
  auto data = mut.RandomInput(8, rng);
  for (int round = 0; round < 50 && !out_of_range_seen; ++round) {
    data = mut.Mutate(data, data, rng);
    if (data.empty()) data = mut.RandomInput(4, rng);
    for (std::size_t off = 0; off + 4 <= data.size(); off += 4) {
      const auto v = ir::Value::FromBytes(DType::kInt32, data.data() + off).AsInt64();
      out_of_range_seen |= v < 0 || v > 10;
    }
  }
  EXPECT_TRUE(out_of_range_seen);
}

TEST(FieldRangeTest, RangesAcceleratenarrowThresholds) {
  // §5's scenario: an int32 inport used only in [0, 32768]; the interesting
  // threshold sits at 30000. With the declared range the fuzzer covers both
  // switch outcomes in a handful of executions.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  auto sw = mb.Op(BlockKind::kSwitch, "sw", {mb.Constant(1.0), u, mb.Constant(0.0)}, [] {
    ParamMap p;
    p.Set("criteria", ParamValue("ge"));
    p.Set("threshold", ParamValue(30000.0));
    return p;
  }());
  mb.Outport("y", sw);
  auto cm = CompiledModel::FromModel(mb.Build()).take();

  fuzz::FuzzerOptions options;
  options.seed = 11;
  options.field_ranges = {fuzz::FieldRange{0, 32768, true}};
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 2.0;
  budget.max_executions = 300;
  const auto result = fuzzer.Run(budget);
  EXPECT_EQ(result.report.outcome_covered, result.report.outcome_total);
}

}  // namespace
}  // namespace cftcg
