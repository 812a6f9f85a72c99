// Native code against the bytecode interpreter, in lockstep (lockstep.hpp):
// every opcode at every width over sentinel operands, the eight benchmark
// models (instrumented and edge-instrumented) under every plane
// configuration, hanging loops under the back-edge budget, and the
// ownership of the translated code when Machines are copied and moved.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "ir/value.hpp"
#include "lockstep.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"
#include "vm/native_x64.hpp"
#include "vm/program.hpp"

namespace cftcg::vm {
namespace {

Insn I(Op op, int dst = 0, int a = 0, int b = 0, int imm = 0, int aux = 0, double dimm = 0.0,
       ir::DType t = ir::DType::kDouble) {
  Insn in;
  in.op = op;
  in.dst = dst;
  in.a = a;
  in.b = b;
  in.imm = imm;
  in.aux = aux;
  in.dimm = dimm;
  in.type = t;
  return in;
}

coverage::CoverageSpec EightSlotSpec() {
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 8);
  return spec;
}

constexpr int kUnderTest = 10;  // the pc of the instruction under test
constexpr int kLanding = 12;    // where its taken jump lands: `cov 7`

/// Loads five double inputs into d2, d3 and (through cvt.d2i, unwrapped)
/// i2, i3, i4, presets both dst registers, then runs `in` with dst 1, a 2,
/// b 3, aux 4. A margin site reads d2 - d3 before it and -|i2 - i3| at the
/// jump landing.
Program OpcodeProgram(Insn in) {
  using ir::DType;
  Program p;
  p.num_dregs = 6;
  p.num_iregs = 6;
  p.num_edges = 8;
  p.input_types.assign(5, DType::kDouble);
  p.output_types = {DType::kDouble, DType::kInt32};
  p.state_d = {StateSlot{true, 0.5, DType::kDouble, "sd"}};
  p.state_i = {StateSlot{false, 3.0, DType::kInt32, "si"}};
  p.code = {
      I(Op::kLoadInD, 2, 0, 0, 0),
      I(Op::kLoadInD, 3, 0, 0, 1),
      I(Op::kLoadInD, 4, 0, 0, 2),
      I(Op::kCvtDToI, 2, 4),
      I(Op::kLoadInD, 4, 0, 0, 3),
      I(Op::kCvtDToI, 3, 4),
      I(Op::kLoadInD, 4, 0, 0, 4),
      I(Op::kCvtDToI, 4, 4),
      I(Op::kLoadConstI, 1, 0, 0, 0, 0, 6.0),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 0.25),
      in,
      I(Op::kHalt),
      I(Op::kCov, 0, 0, 0, 7),
      I(Op::kHalt),
  };
  p.margins = {
      MarginSite{kUnderTest, 0, 0, 1, {true, 2}, {true, 3}, MarginSite::Kind::kDiff},
      MarginSite{kLanding, 0, 2, 3, {false, 2}, {false, 3}, MarginSite::Kind::kNegAbsDiff},
  };
  return p;
}

// Every opcode, at every DType width, over the cross product of the
// sentinel operands (NaN, infinities, -0.0, integer extremes, shift counts
// of 64 and more, zero divisors), with every plane attached and with none.
TEST(NativeLockstepTest, EveryOpcodeAtEveryWidthOnSentinels) {
  const coverage::CoverageSpec spec = EightSlotSpec();
  const std::vector<double>& ds = lockstep::DoubleSentinels();
  const std::vector<std::int64_t>& is = lockstep::IntSentinels();
  const double kDimms[] = {2.0, -0.0, 1e30, -1e30, NAN, 300.7, -129.5};
  lockstep::Planes all;
  all.profile = 2;
  all.strobe_period = 3;
  all.margins = all.sink = all.cmp_trace = all.edges = true;
  const lockstep::Planes none;
  for (std::size_t k = 0; k < kNumOps; ++k) {
    const auto op = static_cast<Op>(k);
    for (int t = 0; t < ir::kNumDTypes; ++t) {
      for (const double dimm : kDimms) {
        int imm = 0;
        if (EffectOf(op).jumps) imm = kLanding;
        if (op == Op::kLoadInI || op == Op::kStoreOutI) imm = 1;
        const Program p =
            OpcodeProgram(I(op, 1, 2, 3, imm, 4, dimm, static_cast<ir::DType>(t)));
        const std::size_t pairs = dimm == 2.0 ? ds.size() * ds.size() : ds.size();
        for (const lockstep::Planes& planes : {all, none}) {
          lockstep::Side native(p, spec, planes);
          lockstep::Side reference(p, spec, planes);
          for (std::size_t n = 0; n < pairs; ++n) {
            const std::vector<ir::Value> inputs = {
                ir::Value::Real(ir::DType::kDouble, ds[n % ds.size()]),
                ir::Value::Real(ir::DType::kDouble, ds[(n / ds.size()) % ds.size()]),
                ir::Value::Real(ir::DType::kDouble, static_cast<double>(is[n % is.size()])),
                ir::Value::Real(ir::DType::kDouble,
                                static_cast<double>(is[(n / is.size() + n) % is.size()])),
                ir::Value::Real(ir::DType::kDouble, static_cast<double>(n % 3 == 0 ? 0 : 1)),
            };
            native.machine().SetInputs(inputs);
            reference.machine().SetInputs(inputs);
            ASSERT_EQ(native.Step(true), reference.Step(false)) << OpName(op);
            const std::string diff = native.Diff(reference);
            ASSERT_EQ(diff, "") << OpName(op) << " type "
                                << ir::DTypeName(static_cast<ir::DType>(t)) << " dimm " << dimm
                                << " operand set " << n << " " << planes.Name();
          }
        }
      }
    }
  }
}

// A loop the input sizes: `n` passes through a back edge, under a budget of
// 10 back jumps, as jnz and as a fused backward branch. Hangs abort at the
// same pc with the same counts, samples and countdown.
TEST(NativeLockstepTest, HangingLoopsSpendTheBudgetAlike) {
  const coverage::CoverageSpec spec = EightSlotSpec();
  for (const bool fused : {false, true}) {
    Program p;
    p.num_dregs = 2;
    p.num_iregs = 4;
    p.input_types = {ir::DType::kInt32};
    p.const_i = {{2, 1}, {3, 0}};
    p.code = {
        I(Op::kLoadInI, 1, 0, 0, 0),
        I(Op::kCov, 0, 0, 0, 1),
        I(Op::kSubI, 1, 1, 2, 0, 0, 0, ir::DType::kInt32),
        fused ? I(Op::kBrLeI, 0, 1, 3, 1) : I(Op::kJmpIfNotZero, 0, 1, 0, 1),
        I(Op::kCov, 0, 0, 0, 2),
        I(Op::kHalt),
    };
    lockstep::Planes planes;
    planes.profile = 2;
    planes.strobe_period = 5;
    planes.sink = true;
    planes.step_budget = 10;
    lockstep::Side native(p, spec, planes);
    lockstep::Side reference(p, spec, planes);
    int hangs = 0;
    for (std::int64_t n = 0; n < 25; ++n) {
      const std::vector<ir::Value> in = {ir::Value::Int(ir::DType::kInt32, n)};
      native.machine().SetInputs(in);
      reference.machine().SetInputs(in);
      const bool ran = native.Step(true);
      ASSERT_EQ(ran, reference.Step(false)) << "n=" << n;
      hangs += ran ? 0 : 1;
      ASSERT_EQ(native.Diff(reference), "") << "n=" << n << (fused ? " fused" : " jnz");
    }
    EXPECT_GT(hangs, 0);
  }
}

class NativeModelTest : public ::testing::TestWithParam<std::string> {};

// Each benchmark model, 1 200 tuples with every plane attached and 1 200 with
// none, then 60 under each of the other configurations; and its
// edge-instrumented (fuzz-only) program with and without an edge map.
TEST_P(NativeModelTest, MatchesTheInterpreterInLockstep) {
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok()) << model.message();
  auto compiled = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  Rng rng(11);
  const std::vector<lockstep::Planes> matrix = lockstep::PlaneMatrix();
  for (std::size_t k = 0; k < matrix.size(); ++k) {
    lockstep::Planes planes = matrix[k];
    planes.step_budget = 1000;
    const bool full = k == 0 || k + 1 == matrix.size();
    EXPECT_TRUE(lockstep::Run(cm->instrumented(), cm->spec(), planes, rng, full ? 1200 : 60));
  }
  for (const bool edges : {false, true}) {
    lockstep::Planes planes;
    planes.profile = 1;
    planes.edges = edges;
    planes.cmp_trace = true;
    EXPECT_TRUE(lockstep::Run(cm->fuzz_only(), cm->spec(), planes, rng, 300));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, NativeModelTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

// On an x86-64 host that grants executable mappings, Step runs native code
// (translated lazily, once per configuration); elsewhere it runs the
// interpreter and translates nothing.
TEST(NativeCodeTest, TranslatesLazilyPerConfiguration) {
  auto model = bench_models::Build("AFC");
  ASSERT_TRUE(model.ok());
  auto cm = CompiledModel::FromModel(model.take()).take();
  Machine m(cm->instrumented());
  EXPECT_EQ(m.native_code_bytes(), 0U) << "nothing is translated before the first Step";
  m.Step(nullptr);
  const std::size_t plain = m.native_code_bytes();
  if (!kNativeTarget) {
    EXPECT_EQ(plain, 0U);
    return;
  }
  EXPECT_GT(plain, 0U);
  m.Step(nullptr);
  EXPECT_EQ(m.native_code_bytes(), plain) << "one translation per configuration";
  ExecProfile profile;
  profile.AttachTo(cm->instrumented());
  m.set_profile(&profile);
  m.Step(nullptr);
  EXPECT_GT(m.native_code_bytes(), plain) << "counting is a configuration of its own";
  EXPECT_GT(m.native_translate_us(), 0.0);
}

// A copy translates its own code, a move takes the original's, and each
// keeps running after the other is gone.
TEST(NativeCodeTest, CopiesAndMovesOwnTheirCode) {
  auto model = bench_models::Build("TCP");
  ASSERT_TRUE(model.ok());
  auto cm = CompiledModel::FromModel(model.take()).take();
  const Program& p = cm->instrumented();
  std::vector<std::uint8_t> buf(p.TupleSize(), 7);
  auto original = std::make_unique<Machine>(p);
  original->SetInputsFromBytes(buf.data());
  ASSERT_TRUE(original->Step(nullptr));
  Machine copy(*original);
  EXPECT_EQ(copy.native_code_bytes(), 0U) << "a copy shares no mapping";
  Machine assigned(p);
  assigned.Step(nullptr);
  assigned = *original;
  EXPECT_EQ(assigned.native_code_bytes(), 0U) << "an assigned copy drops its own mappings";
  const std::size_t bytes = original->native_code_bytes();
  Machine moved(std::move(*original));
  EXPECT_EQ(moved.native_code_bytes(), bytes);
  original.reset();
  coverage::CoverageSink a(cm->spec());
  coverage::CoverageSink b(cm->spec());
  coverage::CoverageSink c(cm->spec());
  for (int k = 0; k < 20; ++k) {
    a.BeginIteration();
    b.BeginIteration();
    c.BeginIteration();
    ASSERT_TRUE(copy.Step(&a));
    ASSERT_TRUE(moved.Step(&b));
    ASSERT_TRUE(assigned.StepBytecode(&c));
    ASSERT_EQ(a.curr(), b.curr());
    ASSERT_EQ(a.curr(), c.curr());
    ASSERT_EQ(copy.ifile(), moved.ifile());
  }
  if (kNativeTarget) {
    EXPECT_GT(copy.native_code_bytes(), 0U);
  }
}

}  // namespace
}  // namespace cftcg::vm
