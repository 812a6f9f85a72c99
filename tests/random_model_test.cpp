// Property test: the compiler chain itself is fuzzed with randomly
// generated models. For every random model that analyzes cleanly we require
//   * scheduling + lowering to succeed,
//   * the VM and the interpreter to agree bit-for-bit on outputs and
//     coverage over random input streams,
//   * the model XML round-trip to reproduce identical behaviour,
//   * native code to match the bytecode interpreter in lockstep,
//   * the printed C, compiled (when a compiler exists), to match the VM.
#include <gtest/gtest.h>

#include "c_transcript.hpp"
#include "cftcg/pipeline.hpp"
#include "lockstep.hpp"
#include "ir/builder.hpp"
#include "parser/model_io.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"

namespace cftcg {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;
using ir::ParamMap;
using ir::ParamValue;
using ir::PortRef;

/// Generates a random scalar dataflow model. Every wire source is an
/// already-created port, so the graph is a DAG (plus delay-broken feedback
/// once in a while).
std::unique_ptr<ir::Model> RandomModel(Rng& rng) {
  ModelBuilder mb("random");
  std::vector<PortRef> numeric;  // any-typed value ports
  std::vector<PortRef> boolean;  // bool ports

  const DType in_types[] = {DType::kInt8,  DType::kUInt8, DType::kInt16, DType::kUInt16,
                            DType::kInt32, DType::kDouble, DType::kSingle, DType::kBool};
  const int n_in = 1 + static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < n_in; ++i) {
    const DType t = in_types[rng.NextIndex(std::size(in_types))];
    auto p = mb.Inport("in" + std::to_string(i), t);
    (t == DType::kBool ? boolean : numeric).push_back(p);
  }
  if (numeric.empty()) numeric.push_back(mb.Constant(1.0));
  if (boolean.empty()) {
    boolean.push_back(mb.Relational("gt", numeric[0], mb.Constant(0.0)));
  }

  auto num = [&]() { return numeric[rng.NextIndex(numeric.size())]; };
  auto boo = [&]() { return boolean[rng.NextIndex(boolean.size())]; };

  const int n_ops = 5 + static_cast<int>(rng.NextBelow(25));
  for (int i = 0; i < n_ops; ++i) {
    const std::string nm = "op" + std::to_string(i);
    switch (rng.NextBelow(18)) {
      case 0: numeric.push_back(mb.Gain(num(), rng.NextDouble(-3, 3), nm)); break;
      case 1: numeric.push_back(mb.Sum(num(), num(), nm)); break;
      case 2: numeric.push_back(mb.Sub(num(), num(), nm)); break;
      case 3: numeric.push_back(mb.Mul(num(), num(), nm)); break;
      case 4: {
        const double lo = rng.NextDouble(-100, 0);
        numeric.push_back(mb.Saturation(num(), lo, lo + rng.NextDouble(1, 100), nm));
        break;
      }
      case 5: numeric.push_back(mb.Op(BlockKind::kAbs, nm, {num()})); break;
      case 6: numeric.push_back(mb.Op(BlockKind::kSign, nm, {num()})); break;
      case 7:
        numeric.push_back(mb.Op(rng.NextBool() ? BlockKind::kMin : BlockKind::kMax, nm,
                                {num(), num()}));
        break;
      case 8: {
        const char* ops[] = {"lt", "le", "gt", "ge", "eq", "ne"};
        boolean.push_back(mb.Relational(ops[rng.NextIndex(6)], num(), num(), nm));
        break;
      }
      case 9: boolean.push_back(mb.And({boo(), boo()}, nm)); break;
      case 10: boolean.push_back(mb.Or({boo(), boo()}, nm)); break;
      case 11: boolean.push_back(mb.Not(boo(), nm)); break;
      case 12:
        numeric.push_back(
            mb.Switch(num(), boo(), num(), 0.5, nm));
        break;
      case 13: numeric.push_back(mb.UnitDelay(num(), rng.NextDouble(-5, 5), nm)); break;
      case 14: {
        ParamMap p;
        p.Set("limit", ParamValue(static_cast<std::int64_t>(1 + rng.NextBelow(10))));
        numeric.push_back(mb.Op(BlockKind::kCounterLimited, nm, {boo()}, std::move(p)));
        break;
      }
      case 15: {  // expression-function block with an if/else body
        ParamMap p;
        p.Set("in", ParamValue(2));
        p.Set("out", ParamValue(1));
        const double thr = rng.NextDouble(-10, 10);
        p.Set("body", ParamValue(
                          "t = u1 - u2; if (t > " + std::to_string(thr) +
                          " && u2 < 100) { y1 = t; } elseif (t < 0) { y1 = -t; } else { y1 = "
                          "u2; }"));
        numeric.push_back(mb.Op(BlockKind::kExprFunc, nm, {num(), num()}, std::move(p)));
        break;
      }
      case 16: {  // small random chart
        ir::ChartDef def;
        def.inputs = {"x", "go"};
        def.outputs = {ir::ChartOutput{"y", DType::kDouble, rng.NextDouble(-1, 1)}};
        def.vars = {ir::ChartVar{"n", 0.0}};
        def.states = {
            ir::ChartState{"A", "y = 0;", "n = n + 1;", ""},
            ir::ChartState{"B", "y = x;", "if (n > 3) { y = y + 1; }", "n = 0;"},
            ir::ChartState{"C", "y = -1;", "", ""},
        };
        const double g1 = rng.NextDouble(-5, 5);
        def.transitions = {
            ir::ChartTransition{0, 1, "go != 0 && x > " + std::to_string(g1), ""},
            ir::ChartTransition{1, 2, "n >= 2 || x < 0", "n = n + 1;"},
            ir::ChartTransition{2, 0, "go == 0", ""},
        };
        const auto chart = mb.AddChart(nm, {num(), boo()}, def);
        numeric.push_back(ModelBuilder::Out(chart, 0));
        break;
      }
      default: {
        ParamMap p;
        p.Set("start", ParamValue(-1.0));
        p.Set("end", ParamValue(1.0));
        numeric.push_back(mb.Op(BlockKind::kDeadZone, nm, {num()}, std::move(p)));
        break;
      }
    }
  }
  mb.Outport("y0", num());
  mb.Outport("y1", boo());
  return mb.Build();
}

void CheckEquivalence(CompiledModel& cm, Rng& rng, const char* label) {
  vm::Machine machine(cm.instrumented());
  sim::Interpreter interp(cm.scheduled(), false);
  coverage::CoverageSink vm_sink(cm.spec());
  coverage::CoverageSink in_sink(cm.spec());
  std::vector<std::uint8_t> buf(cm.instrumented().TupleSize());
  for (int step = 0; step < 60; ++step) {
    rng.FillBytes(buf.data(), buf.size());
    vm_sink.BeginIteration();
    machine.SetInputsFromBytes(buf.data());
    machine.Step(&vm_sink);
    vm_sink.AccumulateIteration();
    in_sink.BeginIteration();
    interp.SetInputsFromBytes(buf.data());
    interp.Step(&in_sink);
    in_sink.AccumulateIteration();
    for (int o = 0; o < machine.num_outputs(); ++o) {
      ASSERT_EQ(machine.GetOutput(o).ToString(), interp.GetOutput(o).ToString())
          << label << " output " << o << " step " << step;
    }
    ASSERT_EQ(vm_sink.curr(), in_sink.curr()) << label << " step " << step;
  }
}

class RandomModelTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomModelTest, CompileExecuteRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  auto model = RandomModel(rng);
  const std::string xml = parser::SaveModel(*model);

  auto compiled = CompiledModel::FromModel(std::move(model));
  ASSERT_TRUE(compiled.ok()) << compiled.message() << "\n" << xml;
  auto cm = compiled.take();

  Rng exec_rng(rng.NextU64());
  CheckEquivalence(*cm, exec_rng, "original");

  // XML round trip behaves identically.
  auto reloaded = CompiledModel::FromXml(xml);
  ASSERT_TRUE(reloaded.ok()) << reloaded.message();
  auto cm2 = reloaded.take();
  vm::Machine m1(cm->instrumented());
  vm::Machine m2(cm2->instrumented());
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  Rng io_rng(GetParam());
  for (int step = 0; step < 40; ++step) {
    io_rng.FillBytes(buf.data(), buf.size());
    m1.SetInputsFromBytes(buf.data());
    m2.SetInputsFromBytes(buf.data());
    m1.Step(nullptr);
    m2.Step(nullptr);
    for (int o = 0; o < m1.num_outputs(); ++o) {
      ASSERT_EQ(m1.GetOutput(o).ToString(), m2.GetOutput(o).ToString())
          << "xml round-trip diverged, seed " << GetParam() << " step " << step;
    }
  }
}

// The lockstep oracle (lockstep.hpp) on every seed's model: 1 000 tuples with
// every plane attached and 1 000 with none.
TEST_P(RandomModelTest, NativeMatchesTheInterpreterInLockstep) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  auto compiled = CompiledModel::FromModel(RandomModel(rng));
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  Rng exec_rng(rng.NextU64());
  lockstep::Planes all;
  all.profile = 2;
  all.margins = all.sink = all.cmp_trace = true;
  all.step_budget = 1000;
  EXPECT_TRUE(lockstep::Run(cm->instrumented(), cm->spec(), all, exec_rng, 1000));
  EXPECT_TRUE(lockstep::Run(cm->instrumented(), cm->spec(), lockstep::Planes{}, exec_rng, 1000));
}

// The C leg (c_transcript.hpp): the seed's model printed, compiled under
// UBSan and run on CheckEquivalence's tuple stream, with outputs, coverage
// slots and MCDC tuples equal to the VM's on every step.
TEST_P(RandomModelTest, CompiledCMatchesTheVm) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  auto compiled = CompiledModel::FromModel(RandomModel(rng));
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  Rng exec_rng(rng.NextU64());
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  std::vector<std::uint8_t> stream;
  for (int step = 0; step < 60; ++step) {
    exec_rng.FillBytes(buf.data(), buf.size());
    stream.insert(stream.end(), buf.begin(), buf.end());
  }
  const std::string want = c_transcript::VmTranscript(cm->instrumented(), cm->spec(), stream);
  const std::string got = c_transcript::CompiledTranscript(
      cm->instrumented(), cm->model().name(), "random_" + std::to_string(GetParam()), stream);
  ASSERT_EQ(c_transcript::FirstDifference(got, want), "") << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomModelTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace cftcg
