// VM-vs-interpreter equivalence — the reproduction of the paper's "we have
// verified the correctness of the generated code by comparing simulation
// results with code execution results".
//
// For every benchmark model we drive both backends with identical random
// input streams and require bit-identical outputs AND identical coverage
// maps at every iteration.
#include <gtest/gtest.h>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"

namespace cftcg {
namespace {

class EquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EquivalenceTest, VmMatchesInterpreterOnRandomStreams) {
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok()) << model.message();
  auto compiled = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();

  vm::Machine machine(cm->instrumented());
  sim::Interpreter interp(cm->scheduled(), /*log_signals=*/false);
  coverage::CoverageSink vm_sink(cm->spec());
  coverage::CoverageSink interp_sink(cm->spec());

  const std::size_t tuple = cm->instrumented().TupleSize();
  Rng rng(7);
  std::vector<std::uint8_t> buf(tuple);

  // Several episodes (reset + stream) to also cover Reset() equivalence.
  for (int episode = 0; episode < 4; ++episode) {
    machine.Reset();
    interp.Reset();
    const int steps = 50 + episode * 50;
    for (int step = 0; step < steps; ++step) {
      // Mix of fully random tuples and "held" tuples (repeat last) to reach
      // deeper states on both sides.
      if (step == 0 || rng.NextBool(0.6)) rng.FillBytes(buf.data(), buf.size());

      vm_sink.BeginIteration();
      machine.SetInputsFromBytes(buf.data());
      machine.Step(&vm_sink);
      vm_sink.AccumulateIteration();

      interp_sink.BeginIteration();
      interp.SetInputsFromBytes(buf.data());
      interp.Step(&interp_sink);
      interp_sink.AccumulateIteration();

      ASSERT_EQ(machine.num_outputs(), interp.num_outputs());
      for (int o = 0; o < machine.num_outputs(); ++o) {
        const ir::Value a = machine.GetOutput(o);
        const ir::Value b = interp.GetOutput(o);
        ASSERT_EQ(a.type(), b.type())
            << GetParam() << " episode " << episode << " step " << step << " output " << o;
        ASSERT_EQ(a.ToString(), b.ToString())
            << GetParam() << " episode " << episode << " step " << step << " output " << o;
      }
      ASSERT_EQ(vm_sink.curr(), interp_sink.curr())
          << GetParam() << " coverage diverged at episode " << episode << " step " << step;
    }
  }

  ASSERT_EQ(vm_sink.total(), interp_sink.total());
  // MCDC evaluation sets must agree too.
  ASSERT_EQ(vm_sink.evals().size(), interp_sink.evals().size());
  for (std::size_t d = 0; d < vm_sink.evals().size(); ++d) {
    EXPECT_EQ(vm_sink.evals()[d], interp_sink.evals()[d]) << "decision " << d;
  }
}

// Model-text constants outside their block's integer range: a Constant of
// 1e30 on int32 and -1e30 on uint8, CompareToConstant and Switch thresholds
// past the int8 range, and Saturation bounds past the int16 range. Each
// converts through num::TruncToI64 (saturate, then wrap, as cvt.d2i does;
// a Saturation bound clamps to its type instead) or compares in the
// floating domain, never through an undefined cast; and
// native code, the bytecode interpreter and the simulation interpreter agree
// on every output and coverage bit.
TEST(OutOfRangeConstantsTest, EveryEngineAgrees) {
  const std::string xml = R"(<?xml version="1.0" encoding="UTF-8"?>
<model name="Edges">
  <block kind="Inport" name="X">
    <param name="port" kind="int">0</param>
    <param name="type" kind="str">int8</param>
  </block>
  <block kind="Inport" name="Y">
    <param name="port" kind="int">1</param>
    <param name="type" kind="str">int16</param>
  </block>
  <block kind="Constant" name="big">
    <param name="type" kind="str">int32</param>
    <param name="value" kind="real">1e30</param>
  </block>
  <block kind="Constant" name="neg">
    <param name="type" kind="str">uint8</param>
    <param name="value" kind="real">-1e30</param>
  </block>
  <block kind="CompareToConstant" name="below_1000">
    <param name="op" kind="str">lt</param>
    <param name="value" kind="real">1000</param>
  </block>
  <block kind="CompareToConstant" name="above_300">
    <param name="op" kind="str">gt</param>
    <param name="value" kind="real">300</param>
  </block>
  <block kind="CompareToConstant" name="above_minus_1e30">
    <param name="op" kind="str">ge</param>
    <param name="value" kind="real">-1e30</param>
  </block>
  <block kind="Switch" name="sw">
    <param name="criteria" kind="str">ge</param>
    <param name="threshold" kind="real">1000</param>
  </block>
  <block kind="Saturation" name="sat">
    <param name="lower" kind="real">-1e30</param>
    <param name="upper" kind="real">1e30</param>
  </block>
  <block kind="Outport" name="Big"><param name="port" kind="int">0</param></block>
  <block kind="Outport" name="Neg"><param name="port" kind="int">1</param></block>
  <block kind="Outport" name="Below"><param name="port" kind="int">2</param></block>
  <block kind="Outport" name="Above"><param name="port" kind="int">3</param></block>
  <block kind="Outport" name="AboveMin"><param name="port" kind="int">4</param></block>
  <block kind="Outport" name="Sw"><param name="port" kind="int">5</param></block>
  <block kind="Outport" name="Sat"><param name="port" kind="int">6</param></block>
  <wire from="big:0" to="Big:0"/>
  <wire from="neg:0" to="Neg:0"/>
  <wire from="X:0" to="below_1000:0"/>
  <wire from="X:0" to="above_300:0"/>
  <wire from="Y:0" to="above_minus_1e30:0"/>
  <wire from="Y:0" to="sw:0"/>
  <wire from="X:0" to="sw:1"/>
  <wire from="big:0" to="sw:2"/>
  <wire from="Y:0" to="sat:0"/>
  <wire from="below_1000:0" to="Below:0"/>
  <wire from="above_300:0" to="Above:0"/>
  <wire from="above_minus_1e30:0" to="AboveMin:0"/>
  <wire from="sw:0" to="Sw:0"/>
  <wire from="sat:0" to="Sat:0"/>
</model>
)";
  auto compiled = CompiledModel::FromXml(xml);
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  vm::Machine native(cm->instrumented());
  vm::Machine bytecode(cm->instrumented());
  sim::Interpreter interp(cm->scheduled(), /*log_signals=*/false);
  coverage::CoverageSink native_sink(cm->spec());
  coverage::CoverageSink bytecode_sink(cm->spec());
  coverage::CoverageSink interp_sink(cm->spec());
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  Rng rng(5);
  for (int step = 0; step < 300; ++step) {
    rng.FillBytes(buf.data(), buf.size());
    for (auto* sink : {&native_sink, &bytecode_sink, &interp_sink}) sink->BeginIteration();
    native.SetInputsFromBytes(buf.data());
    bytecode.SetInputsFromBytes(buf.data());
    interp.SetInputsFromBytes(buf.data());
    native.Step(&native_sink);
    bytecode.StepBytecode(&bytecode_sink);
    interp.Step(&interp_sink);
    for (int o = 0; o < native.num_outputs(); ++o) {
      ASSERT_EQ(native.GetOutput(o).ToString(), bytecode.GetOutput(o).ToString()) << o;
      ASSERT_EQ(native.GetOutput(o).ToString(), interp.GetOutput(o).ToString()) << o;
    }
    ASSERT_EQ(native_sink.curr(), bytecode_sink.curr()) << step;
    ASSERT_EQ(native_sink.curr(), interp_sink.curr()) << step;
    // Whole thresholds past int8 compare as the generated C does.
    const auto x = static_cast<std::int8_t>(buf[0]);
    ASSERT_EQ(native.GetOutput(2).AsInt64(), 1) << "int8 " << int{x} << " < 1000";
    ASSERT_EQ(native.GetOutput(3).AsInt64(), 0) << "int8 " << int{x} << " > 300";
    ASSERT_EQ(native.GetOutput(4).AsInt64(), 1);
    ASSERT_EQ(native.GetOutput(5).AsInt64(), native.GetOutput(0).AsInt64()) << "switch";
  }
  // 1e30 saturates to INT64_MAX, which wraps to -1 as an int32; -1e30
  // saturates to INT64_MIN, which wraps to 0 as a uint8.
  EXPECT_EQ(native.GetOutput(0).AsInt64(), -1);
  EXPECT_EQ(native.GetOutput(1).AsInt64(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, EquivalenceTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

}  // namespace
}  // namespace cftcg
