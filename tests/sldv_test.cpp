// Tests of the constraint-solving baseline (interval domain + bounded
// goal-directed search).
#include <gtest/gtest.h>

#include "cftcg/pipeline.hpp"
#include "ir/builder.hpp"
#include "sldv/goal_solver.hpp"
#include "sldv/interval.hpp"

namespace cftcg::sldv {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;
using ir::ParamMap;
using ir::ParamValue;

TEST(IntervalTest, BasicOps) {
  const Interval a(1, 3);
  const Interval b(-2, 2);
  EXPECT_EQ(a.Add(b), Interval(-1, 5));
  EXPECT_EQ(a.Sub(b), Interval(-1, 5));
  EXPECT_EQ(a.Mul(b), Interval(-6, 6));
  EXPECT_EQ(a.Neg(), Interval(-3, -1));
  EXPECT_EQ(b.Abs(), Interval(0, 2));
  EXPECT_EQ(a.Min(b), Interval(-2, 2));
  EXPECT_EQ(a.Max(b), Interval(1, 3));
}

TEST(IntervalTest, EmptyPropagates) {
  const Interval empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.Add(Interval(1, 2)).empty());
  EXPECT_TRUE(Interval(3, 1).empty());
  EXPECT_TRUE(Interval(1, 2).Intersect(Interval(3, 4)).empty());
}

TEST(IntervalTest, IntersectUnionContains) {
  const Interval a(0, 10);
  const Interval b(5, 20);
  EXPECT_EQ(a.Intersect(b), Interval(5, 10));
  EXPECT_EQ(a.Union(b), Interval(0, 20));
  EXPECT_TRUE(a.Contains(0));
  EXPECT_FALSE(a.Contains(10.5));
}

TEST(IntervalTest, RelationalRefinement) {
  const Interval a(0, 10);
  const Interval b(3, 5);
  EXPECT_EQ(a.RefineGe(b), Interval(3, 10));
  EXPECT_EQ(a.RefineLe(b), Interval(0, 5));
  EXPECT_EQ(a.RefineEq(b), Interval(3, 5));
  EXPECT_LT(a.RefineLt(b).hi(), 5.0);
  EXPECT_GT(a.RefineGt(b).lo(), 3.0);
}

TEST(IntervalTest, AlwaysLtTriState) {
  EXPECT_EQ(Interval(0, 1).AlwaysLt(Interval(2, 3)), 1);
  EXPECT_EQ(Interval(5, 6).AlwaysLt(Interval(2, 3)), 0);
  EXPECT_EQ(Interval(0, 10).AlwaysLt(Interval(5, 6)), -1);
}

TEST(IntervalTest, OfTypeRanges) {
  EXPECT_EQ(Interval::OfType(DType::kInt8), Interval(-128, 127));
  EXPECT_EQ(Interval::OfType(DType::kBool), Interval(0, 1));
  EXPECT_EQ(Interval::OfType(DType::kUInt16), Interval(0, 65535));
}

std::unique_ptr<CompiledModel> Compile(std::unique_ptr<ir::Model> model) {
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

TEST(GoalSolverTest, SolvesNarrowEqualityGoal) {
  // out = (u == 123456) — random testing is unlikely to hit this in a few
  // hundred tries, but margin-guided search homes in on it.
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  auto sw = mb.Op(BlockKind::kSwitch, "sw",
                  {mb.Constant(1.0), u, mb.Constant(0.0)}, [] {
                    ParamMap p;
                    p.Set("criteria", ParamValue("ge"));
                    p.Set("threshold", ParamValue(123456.0));
                    return p;
                  }());
  mb.Outport("y", sw);
  auto cm = Compile(mb.Build());

  SolverOptions options;
  options.seed = 1;
  options.horizon = 2;
  GoalSolver solver(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 5.0;
  const auto result = solver.Run(budget);
  EXPECT_EQ(result.report.outcome_covered, result.report.outcome_total)
      << "stats: runs=" << solver.stats().runs;
}

TEST(GoalSolverTest, BoundedHorizonMissesDeepState) {
  // A counter must wrap at 50 before the branch triggers; with horizon 5
  // the solver cannot reach it — the paper's SLDV limitation.
  ModelBuilder mb("m");
  auto en = mb.Inport("en", DType::kBool);
  ParamMap p;
  p.Set("limit", ParamValue(50));
  auto c = mb.Op(BlockKind::kCounterLimited, "c", {en}, std::move(p));
  mb.Outport("y", c);
  auto cm = Compile(mb.Build());

  SolverOptions options;
  options.seed = 2;
  options.horizon = 5;
  GoalSolver solver(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 1.0;
  budget.max_executions = 3000;
  const auto result = solver.Run(budget);
  // The wrap outcome (counter >= 50) is out of reach at horizon 5.
  EXPECT_LT(result.report.outcome_covered, result.report.outcome_total);
}

TEST(GoalSolverTest, CoversShallowLogicFully) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  mb.Outport("y", mb.Saturation(u, -10.0, 10.0, "sat"));
  auto cm = Compile(mb.Build());
  SolverOptions options;
  options.seed = 3;
  GoalSolver solver(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 3.0;
  const auto result = solver.Run(budget);
  EXPECT_EQ(result.report.outcome_covered, result.report.outcome_total);
  EXPECT_EQ(solver.stats().goals_covered, solver.stats().goals_total);
}

TEST(GoalSolverTest, ConstraintNodeAccountingGrowsWithHorizon) {
  auto cm1 = Compile([&] {
    ModelBuilder mb("m");
    auto u = mb.Inport("u", DType::kDouble);
    mb.Outport("y", mb.Saturation(u, 0.0, 1.0, "s"));
    return mb.Build();
  }());
  SolverOptions small;
  small.horizon = 2;
  SolverOptions big;
  big.horizon = 20;
  GoalSolver a(cm1->instrumented(), cm1->spec(), small);
  GoalSolver b(cm1->instrumented(), cm1->spec(), big);
  EXPECT_GT(b.stats().constraint_nodes, a.stats().constraint_nodes);
}

TEST(GoalSolverTest, EmitsTestCasesWithTimestamps) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  mb.Outport("y", mb.Saturation(u, -5.0, 5.0, "s"));
  auto cm = Compile(mb.Build());
  SolverOptions options;
  GoalSolver solver(cm->instrumented(), cm->spec(), options);
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 2.0;
  const auto result = solver.Run(budget);
  ASSERT_FALSE(result.test_cases.empty());
  const std::size_t tuple = cm->instrumented().TupleSize();
  for (const auto& tc : result.test_cases) {
    EXPECT_EQ(tc.data.size() % tuple, 0U);
    EXPECT_GE(tc.time_s, 0.0);
  }
}

}  // namespace
}  // namespace cftcg::sldv
