// Behavioural tests of block lowering: small models, known inputs, exact
// expected outputs and coverage outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "ir/builder.hpp"

namespace cftcg {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;
using ir::ParamMap;
using ir::ParamValue;
using ir::Value;

ParamMap P(std::initializer_list<std::pair<const char*, ParamValue>> kv) {
  ParamMap p;
  for (const auto& [k, v] : kv) p.Set(k, v);
  return p;
}

/// Compiles a model and provides typed single-step helpers.
class Harness {
 public:
  explicit Harness(std::unique_ptr<ir::Model> model) {
    auto cm = CompiledModel::FromModel(std::move(model));
    EXPECT_TRUE(cm.ok()) << cm.message();
    cm_ = cm.take();
    machine_ = std::make_unique<vm::Machine>(cm_->instrumented());
    sink_ = std::make_unique<coverage::CoverageSink>(cm_->spec());
  }

  Value Step(std::initializer_list<Value> inputs) {
    std::vector<Value> values(inputs);
    sink_->BeginIteration();
    machine_->SetInputs(values);
    machine_->Step(sink_.get());
    sink_->AccumulateIteration();
    return machine_->GetOutput(0);
  }

  void Reset() { machine_->Reset(); }
  CompiledModel& cm() { return *cm_; }
  coverage::CoverageSink& sink() { return *sink_; }

 private:
  std::unique_ptr<CompiledModel> cm_;
  std::unique_ptr<vm::Machine> machine_;
  std::unique_ptr<coverage::CoverageSink> sink_;
};

TEST(LoweringTest, SaturationThreeRegions) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  mb.Outport("y", mb.Saturation(u, -1.0, 1.0, "sat"));
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-5)}).AsDouble(), -1.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0.25)}).AsDouble(), 0.25);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(9)}).AsDouble(), 1.0);
  const auto report = coverage::ComputeReport(h.sink());
  EXPECT_EQ(report.outcome_covered, 3);
}

TEST(LoweringTest, IntegerSaturation) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt16);
  mb.Outport("y", mb.Saturation(u, -100, 100, "sat"));
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Int(DType::kInt16, 5000)}).AsInt64(), 100);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt16, -5000)}).AsInt64(), -100);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt16, 42)}).AsInt64(), 42);
}

TEST(LoweringTest, SwitchCriteria) {
  for (const char* criteria : {"gt", "ge", "ne"}) {
    ModelBuilder mb("m");
    auto c = mb.Inport("c", DType::kDouble);
    auto sw = mb.Op(BlockKind::kSwitch, "sw", {mb.Constant(1.0), c, mb.Constant(2.0)},
                    P({{"criteria", ParamValue(criteria)}, {"threshold", ParamValue(0.0)}}));
    mb.Outport("y", sw);
    Harness h(mb.Build());
    const double at_zero = h.Step({Value::Double(0.0)}).AsDouble();
    const double above = h.Step({Value::Double(1.0)}).AsDouble();
    const double below = h.Step({Value::Double(-1.0)}).AsDouble();
    if (std::string(criteria) == "gt") {
      EXPECT_EQ(at_zero, 2.0);
      EXPECT_EQ(above, 1.0);
      EXPECT_EQ(below, 2.0);
    } else if (std::string(criteria) == "ge") {
      EXPECT_EQ(at_zero, 1.0);
      EXPECT_EQ(above, 1.0);
      EXPECT_EQ(below, 2.0);
    } else {  // ne
      EXPECT_EQ(at_zero, 2.0);
      EXPECT_EQ(above, 1.0);
      EXPECT_EQ(below, 1.0);
    }
  }
}

TEST(LoweringTest, SwitchIntControlFractionalThreshold) {
  ModelBuilder mb("m");
  auto c = mb.Inport("c", DType::kBool);
  mb.Outport("y", mb.Switch(mb.Constant(1.0), c, mb.Constant(0.0), 0.5, "sw"));
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Bool(false)}).AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Bool(true)}).AsDouble(), 1.0);
}

TEST(LoweringTest, MultiportSwitchSelectsAndDefaults) {
  ModelBuilder mb("m");
  auto idx = mb.Inport("idx", DType::kInt32);
  auto sw = mb.Op(BlockKind::kMultiportSwitch, "mp",
                  {idx, mb.Constant(10.0), mb.Constant(20.0), mb.Constant(30.0)},
                  P({{"cases", ParamValue(3)}}));
  mb.Outport("y", sw);
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 1)}).AsDouble(), 10.0);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 2)}).AsDouble(), 20.0);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 3)}).AsDouble(), 30.0);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 99)}).AsDouble(), 30.0);  // out of range -> last
}

TEST(LoweringTest, MinMaxDecisions) {
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kDouble);
  auto b = mb.Inport("b", DType::kDouble);
  mb.Outport("y", mb.Op(BlockKind::kMin, "mn", {a, b}));
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Double(3), Value::Double(5)}).AsDouble(), 3.0);
  EXPECT_EQ(h.Step({Value::Double(7), Value::Double(5)}).AsDouble(), 5.0);
  EXPECT_EQ(coverage::ComputeReport(h.sink()).outcome_covered, 2);
}

TEST(LoweringTest, IntAbsAndSign) {
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kInt32);
  auto abs = mb.Op(BlockKind::kAbs, "abs", {a});
  auto sign = mb.Op(BlockKind::kSign, "sign", {a});
  mb.Outport("abs_out", abs);
  mb.Outport("sign_out", sign);
  Harness h(mb.Build());
  h.Step({Value::Int(DType::kInt32, -7)});
  h.Step({Value::Int(DType::kInt32, 7)});
  h.Step({Value::Int(DType::kInt32, 0)});
  // Abs: 2 outcomes; Sign: 3 outcomes — all covered.
  EXPECT_EQ(coverage::ComputeReport(h.sink()).outcome_covered, 5);
}

TEST(LoweringTest, LogicalShortCircuitIsNotUsedForBlocks) {
  // Block-level AND evaluates all inputs (no short circuit): both
  // conditions see coverage even when the first is false.
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kBool);
  auto b = mb.Inport("b", DType::kBool);
  mb.Outport("y", mb.And({a, b}, "land"));
  Harness h(mb.Build());
  h.Step({Value::Bool(false), Value::Bool(true)});
  const auto& spec = h.cm().spec();
  EXPECT_TRUE(h.sink().total().Test(
      static_cast<std::size_t>(spec.ConditionTrueSlot(spec.conditions()[1].id))));
}

TEST(LoweringTest, LogicalOpsTruthTables) {
  struct Case {
    BlockKind kind;
    bool ff, ft, tf, tt;
  };
  const Case cases[] = {
      {BlockKind::kLogicalAnd, false, false, false, true},
      {BlockKind::kLogicalOr, false, true, true, true},
      {BlockKind::kLogicalXor, false, true, true, false},
      {BlockKind::kLogicalNand, true, true, true, false},
      {BlockKind::kLogicalNor, true, false, false, false},
  };
  for (const auto& c : cases) {
    ModelBuilder mb("m");
    auto a = mb.Inport("a", DType::kBool);
    auto b = mb.Inport("b", DType::kBool);
    mb.Outport("y", mb.Op(c.kind, "op", {a, b}, P({{"inputs", ParamValue(2)}})));
    Harness h(mb.Build());
    EXPECT_EQ(h.Step({Value::Bool(false), Value::Bool(false)}).AsBool(), c.ff);
    EXPECT_EQ(h.Step({Value::Bool(false), Value::Bool(true)}).AsBool(), c.ft);
    EXPECT_EQ(h.Step({Value::Bool(true), Value::Bool(false)}).AsBool(), c.tf);
    EXPECT_EQ(h.Step({Value::Bool(true), Value::Bool(true)}).AsBool(), c.tt);
  }
}

TEST(LoweringTest, UnitDelayAndMemory) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  mb.Outport("y", mb.UnitDelay(u, 42.0, "d"));
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(1)}).AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(2)}).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(3)}).AsDouble(), 2.0);
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(9)}).AsDouble(), 42.0);
}

TEST(LoweringTest, DelayShiftRegister) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kInt32);
  auto d = mb.Op(BlockKind::kDelay, "d", {u},
                 P({{"length", ParamValue(3)}, {"init", ParamValue(0.0)},
                    {"type", ParamValue("int32")}}));
  mb.Outport("y", d);
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 1)}).AsInt64(), 0);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 2)}).AsInt64(), 0);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 3)}).AsInt64(), 0);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 4)}).AsInt64(), 1);
  EXPECT_EQ(h.Step({Value::Int(DType::kInt32, 5)}).AsInt64(), 2);
}

TEST(LoweringTest, LimitedIntegratorClamps) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto integ = mb.Op(BlockKind::kDiscreteIntegrator, "i", {u},
                     P({{"gain", ParamValue(1.0)}, {"lower", ParamValue(0.0)},
                        {"upper", ParamValue(3.0)}}));
  mb.Outport("y", integ);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(2)}).AsDouble(), 0.0);  // output before update
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(2)}).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(2)}).AsDouble(), 3.0);  // clamped at upper
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-99)}).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0)}).AsDouble(), 0.0);  // clamped at lower
}

TEST(LoweringTest, CounterWrapsAtLimit) {
  ModelBuilder mb("m");
  auto en = mb.Inport("en", DType::kBool);
  auto c = mb.Op(BlockKind::kCounterLimited, "c", {en},
                 P({{"limit", ParamValue(2)}}));
  mb.Outport("y", c);
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Bool(true)}).AsInt64(), 1);
  EXPECT_EQ(h.Step({Value::Bool(false)}).AsInt64(), 1);  // holds while disabled
  EXPECT_EQ(h.Step({Value::Bool(true)}).AsInt64(), 2);
  EXPECT_EQ(h.Step({Value::Bool(true)}).AsInt64(), 0);  // wraps at limit
}

TEST(LoweringTest, EdgeDetectorModes) {
  for (const char* mode : {"rising", "falling", "either"}) {
    ModelBuilder mb("m");
    auto u = mb.Inport("u", DType::kBool);
    auto e = mb.Op(BlockKind::kEdgeDetector, "e", {u}, P({{"edge", ParamValue(mode)}}));
    mb.Outport("y", e);
    Harness h(mb.Build());
    const bool r1 = h.Step({Value::Bool(true)}).AsBool();   // 0 -> 1
    const bool r2 = h.Step({Value::Bool(true)}).AsBool();   // steady 1
    const bool r3 = h.Step({Value::Bool(false)}).AsBool();  // 1 -> 0
    const std::string m(mode);
    EXPECT_EQ(r1, m != "falling");
    EXPECT_FALSE(r2);
    EXPECT_EQ(r3, m != "rising");
  }
}

TEST(LoweringTest, RelayHysteresis) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto r = mb.Op(BlockKind::kRelay, "r", {u},
                 P({{"on_point", ParamValue(10.0)}, {"off_point", ParamValue(5.0)},
                    {"on_value", ParamValue(1.0)}, {"off_value", ParamValue(0.0)}}));
  mb.Outport("y", r);
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Double(7)}).AsDouble(), 0.0);   // below on point
  EXPECT_EQ(h.Step({Value::Double(11)}).AsDouble(), 1.0);  // switches on
  EXPECT_EQ(h.Step({Value::Double(7)}).AsDouble(), 1.0);   // hysteresis holds
  EXPECT_EQ(h.Step({Value::Double(4)}).AsDouble(), 0.0);   // below off point
}

TEST(LoweringTest, RateLimiter) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto r = mb.Op(BlockKind::kRateLimiter, "r", {u},
                 P({{"rising", ParamValue(1.0)}, {"falling", ParamValue(-2.0)}}));
  mb.Outport("y", r);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(10)}).AsDouble(), 1.0);   // +1 max
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(10)}).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(2.5)}).AsDouble(), 2.5);  // within rate
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-10)}).AsDouble(), 0.5);  // -2 max
}

TEST(LoweringTest, DeadZone) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto dz = mb.Op(BlockKind::kDeadZone, "dz", {u},
                  P({{"start", ParamValue(-1.0)}, {"end", ParamValue(1.0)}}));
  mb.Outport("y", dz);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0.5)}).AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(3)}).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-4)}).AsDouble(), -3.0);
}

TEST(LoweringTest, Lookup1DInterpolatesAndClamps) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto lut = mb.Op(BlockKind::kLookup1D, "lut", {u},
                   P({{"breakpoints", ParamValue(std::vector<double>{0, 10, 20})},
                      {"table", ParamValue(std::vector<double>{0, 100, 50})}}));
  mb.Outport("y", lut);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-5)}).AsDouble(), 0.0);    // clamp low
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(5)}).AsDouble(), 50.0);    // interp
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(15)}).AsDouble(), 75.0);   // interp down
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(99)}).AsDouble(), 50.0);   // clamp high
}

TEST(LoweringTest, ActionIfRunsOnlyChosenBranchState) {
  // Each branch has a counter; only the executed branch's state advances.
  ModelBuilder mb("m");
  auto cond = mb.Inport("cond", DType::kBool);
  std::vector<std::unique_ptr<ir::Model>> subs;
  for (int k = 0; k < 2; ++k) {
    ModelBuilder s(k == 0 ? "then" : "else");
    auto x = s.Inport("x", DType::kBool);
    auto c = s.Op(BlockKind::kCounterLimited, "cnt", {x},
                  P({{"limit", ParamValue(100)}}));
    s.Outport("n", c);
    subs.push_back(s.Build());
  }
  const auto sel = mb.AddCompound(BlockKind::kActionIf, "sel",
                                  {cond, mb.ConstantBool(true)}, std::move(subs));
  mb.Outport("y", ModelBuilder::Out(sel, 0));
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Bool(true)}).AsInt64(), 1);
  EXPECT_EQ(h.Step({Value::Bool(true)}).AsInt64(), 2);
  EXPECT_EQ(h.Step({Value::Bool(false)}).AsInt64(), 1);  // else counter starts fresh
  EXPECT_EQ(h.Step({Value::Bool(true)}).AsInt64(), 3);   // then counter resumed
}

TEST(LoweringTest, EnabledSubsystemHoldsOutput) {
  ModelBuilder mb("m");
  auto en = mb.Inport("en", DType::kBool);
  auto v = mb.Inport("v", DType::kDouble);
  std::vector<std::unique_ptr<ir::Model>> subs;
  {
    ModelBuilder s("body");
    auto x = s.Inport("x", DType::kDouble);
    s.Outport("y", s.Gain(x, 2.0));
    subs.push_back(s.Build());
  }
  const auto es = mb.AddCompound(BlockKind::kEnabledSubsystem, "es", {en, v}, std::move(subs),
                                 P({{"init", ParamValue(-1.0)}}));
  mb.Outport("y", ModelBuilder::Out(es, 0));
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Bool(false), Value::Double(10)}).AsDouble(), -1.0);  // init
  EXPECT_DOUBLE_EQ(h.Step({Value::Bool(true), Value::Double(10)}).AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Bool(false), Value::Double(99)}).AsDouble(), 20.0);  // held
}

TEST(LoweringTest, ChartTransitionsEntryDuringExit) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  ir::ChartDef def;
  def.inputs = {"x"};
  def.outputs = {ir::ChartOutput{"y", DType::kDouble, 0.0}};
  def.vars = {ir::ChartVar{"n", 0.0}};
  def.states = {
      ir::ChartState{"Off", "y = 0;", "", "y = 100;"},  // exit action visible on transition
      ir::ChartState{"On", "y = y + 1;", "n = n + 1; y = 10 + n;", ""},
  };
  def.transitions = {ir::ChartTransition{0, 1, "x > 0", ""},
                     ir::ChartTransition{1, 0, "x < 0", "n = 0;"}};
  mb.AddChart("c", {u}, def);
  mb.Outport("y", ModelBuilder::Out(1, 0));
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0)}).AsDouble(), 0.0);    // stays Off
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(5)}).AsDouble(), 101.0);  // exit(100) then entry(+1)
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0)}).AsDouble(), 11.0);   // during: n=1
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0)}).AsDouble(), 12.0);   // during: n=2
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-1)}).AsDouble(), 0.0);   // back Off: entry y=0
}

TEST(LoweringTest, ExprFuncLocalsResetPerStep) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto f = mb.Op(BlockKind::kExprFunc, "f", {u},
                 P({{"in", ParamValue(1)}, {"out", ParamValue(1)},
                    {"body", ParamValue("t = t + u1; y1 = t;")}}));
  mb.Outport("y", f);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(5)}).AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(5)}).AsDouble(), 5.0);  // local t reset each step
}

TEST(LoweringTest, MexShortCircuitSkipsRhsConditionCoverage) {
  // if (a > 0 && b > 0): with a <= 0 the second condition is unevaluated,
  // so its polarity slots stay empty (masking semantics).
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kDouble);
  auto b = mb.Inport("b", DType::kDouble);
  auto f = mb.Op(BlockKind::kExprFunc, "f", {a, b},
                 P({{"in", ParamValue(2)}, {"out", ParamValue(1)},
                    {"body", ParamValue("if (u1 > 0 && u2 > 0) { y1 = 1; } else { y1 = 0; }")}}));
  mb.Outport("y", f);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(-1), Value::Double(5)}).AsDouble(), 0.0);
  const auto& spec = h.cm().spec();
  ASSERT_EQ(spec.conditions().size(), 2U);
  const auto c2 = spec.conditions()[1].id;
  EXPECT_FALSE(h.sink().total().Test(static_cast<std::size_t>(spec.ConditionTrueSlot(c2))));
  EXPECT_FALSE(h.sink().total().Test(static_cast<std::size_t>(spec.ConditionFalseSlot(c2))));
  // Now evaluate both.
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(1), Value::Double(5)}).AsDouble(), 1.0);
  EXPECT_TRUE(h.sink().total().Test(static_cast<std::size_t>(spec.ConditionTrueSlot(c2))));
}

TEST(LoweringTest, BitwiseAndShifts) {
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kUInt8);
  auto b = mb.Inport("b", DType::kUInt8);
  mb.Outport("and_out", mb.Op(BlockKind::kBitwiseAnd, "band", {a, b}));
  mb.Outport("shl_out", mb.Op(BlockKind::kShiftLeft, "shl", {a}, P({{"bits", ParamValue(2)}})));
  Harness h(mb.Build());
  EXPECT_EQ(h.Step({Value::Int(DType::kUInt8, 0b1100), Value::Int(DType::kUInt8, 0b1010)})
                .AsInt64(),
            0b1000);
}

TEST(LoweringTest, MergePicksFirstNonZero) {
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kDouble);
  auto b = mb.Inport("b", DType::kDouble);
  auto m = mb.Op(BlockKind::kMerge, "mg", {a, b}, P({{"inputs", ParamValue(2)}}));
  mb.Outport("y", m);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(0), Value::Double(7)}).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(3), Value::Double(7)}).AsDouble(), 3.0);
}

TEST(LoweringTest, QuantizerRoundsToInterval) {
  ModelBuilder mb("m");
  auto u = mb.Inport("u", DType::kDouble);
  auto q = mb.Op(BlockKind::kQuantizer, "q", {u}, P({{"interval", ParamValue(0.5)}}));
  mb.Outport("y", q);
  Harness h(mb.Build());
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(1.3)}).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(h.Step({Value::Double(1.1)}).AsDouble(), 1.0);
}

// Whole-program invariants of the lowering on every Table 2 model, for the
// instrumented and the fuzz-only program: the constant pool is never written
// (the Machine preloads it once) and holds each value once, and compare-and-
// branch fusion left no fusable pair behind — no comparison followed, in the
// same block, by a jz on its result that is not itself a jump target.
class LoweredProgramTest : public ::testing::TestWithParam<const char*> {};

void ExpectPoolUnwrittenAndBranchesFused(const vm::Program& p, const std::string& what) {
  std::set<int> pooled_d;
  std::set<int> pooled_i;
  std::set<std::uint64_t> values_d;
  std::set<std::int64_t> values_i;
  for (const auto& c : p.const_d) {
    EXPECT_TRUE(pooled_d.insert(c.reg).second) << what << ": d" << c.reg << " pooled twice";
    EXPECT_TRUE(values_d.insert(std::bit_cast<std::uint64_t>(c.value)).second)
        << what << ": constant " << c.value << " pooled twice";
  }
  for (const auto& c : p.const_i) {
    EXPECT_TRUE(pooled_i.insert(c.reg).second) << what << ": i" << c.reg << " pooled twice";
    EXPECT_TRUE(values_i.insert(c.value).second)
        << what << ": constant " << c.value << " pooled twice";
  }
  std::vector<bool> is_target(p.code.size() + 1, false);
  for (const vm::Insn& in : p.code) {
    if (vm::EffectOf(in.op).jumps) is_target[static_cast<std::size_t>(in.imm)] = true;
  }
  ASSERT_EQ(p.insn_block.size(), p.code.size()) << what;
  for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
    const vm::Insn& in = p.code[pc];
    const vm::OperandEffect fx = vm::EffectOf(in.op);
    vm::ForEachReg(in, fx.write_d, [&](int r) {
      EXPECT_FALSE(pooled_d.count(r)) << what << ": insn " << pc << " writes pooled d" << r;
    });
    vm::ForEachReg(in, fx.write_i, [&](int r) {
      EXPECT_FALSE(pooled_i.count(r)) << what << ": insn " << pc << " writes pooled i" << r;
    });
    if (pc + 1 < p.code.size() && vm::FusedBranchOf(in.op) != vm::Op::kHalt) {
      const vm::Insn& next = p.code[pc + 1];
      const bool fusable = next.op == vm::Op::kJmpIfZero && next.a == in.dst &&
                           !is_target[pc + 1] && p.insn_block[pc] == p.insn_block[pc + 1];
      EXPECT_FALSE(fusable) << what << ": unfused " << vm::OpName(in.op) << "; jz at " << pc;
    }
  }
}

TEST_P(LoweredProgramTest, PoolUnwrittenAndCompareBranchesFused) {
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok()) << model.message();
  auto cm = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(cm.ok()) << cm.message();
  const vm::Program& inst = cm.value()->instrumented();
  EXPECT_FALSE(inst.const_d.empty() && inst.const_i.empty());
  ExpectPoolUnwrittenAndBranchesFused(inst, std::string(GetParam()) + " instrumented");
  ExpectPoolUnwrittenAndBranchesFused(cm.value()->fuzz_only(),
                                      std::string(GetParam()) + " fuzz-only");
  const auto fused = std::count_if(inst.code.begin(), inst.code.end(), [](const vm::Insn& in) {
    return vm::OpName(in.op).starts_with("br.");
  });
  EXPECT_GT(fused, 0) << "no compare-and-branch was fused";
}

// The margin side table stays in step with the code: sorted by pc (the
// fusion pass remaps it like jump targets), every pc, register, decision and
// outcome in range.
TEST_P(LoweredProgramTest, MarginSitesInStepWithTheCode) {
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok()) << model.message();
  auto cm = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(cm.ok()) << cm.message();
  const vm::Program& p = cm.value()->instrumented();
  const coverage::CoverageSpec& spec = cm.value()->spec();
  const auto reg_ok = [&](const vm::MarginOperand& o) {
    return o.reg >= 0 && o.reg < (o.is_float ? p.num_dregs : p.num_iregs);
  };
  for (std::size_t k = 0; k < p.margins.size(); ++k) {
    const vm::MarginSite& m = p.margins[k];
    EXPECT_LT(static_cast<std::size_t>(m.pc), p.code.size()) << "site " << k;
    if (k > 0) {
      EXPECT_LE(p.margins[k - 1].pc, m.pc) << "site " << k;
    }
    EXPECT_TRUE(reg_ok(m.lhs) && reg_ok(m.rhs)) << "site " << k;
    ASSERT_GE(m.decision, 0);
    ASSERT_LT(static_cast<std::size_t>(m.decision), spec.decisions().size());
    const int outcomes = spec.decision(m.decision).num_outcomes;
    EXPECT_LT(m.ge_outcome, outcomes);
    EXPECT_LT(m.lt_outcome, outcomes);
  }
}

// Switch and MinMax list their site on the jz that fusion folds into the
// comparison, so on these models some site lands on a fused br.*.
TEST(LoweringTest, MarginSitesLandOnFusedBranches) {
  int on_branch = 0;
  for (const char* name : {"CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC", "SolarPV"}) {
    auto model = bench_models::Build(name);
    ASSERT_TRUE(model.ok()) << model.message();
    auto cm = CompiledModel::FromModel(model.take());
    ASSERT_TRUE(cm.ok()) << cm.message();
    const vm::Program& p = cm.value()->instrumented();
    for (const vm::MarginSite& m : p.margins) {
      on_branch += vm::OpName(p.code[static_cast<std::size_t>(m.pc)].op).starts_with("br.");
    }
  }
  EXPECT_GT(on_branch, 0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, LoweredProgramTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

}  // namespace
}  // namespace cftcg
