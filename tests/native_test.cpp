// Native code against the bytecode interpreter, in lockstep (lockstep.hpp):
// every opcode at every width over sentinel operands, TORC and the inline
// double min/max/neg/abs on their edge values, the eight benchmark
// models (instrumented and edge-instrumented) under every plane
// configuration, hanging loops under the back-edge budget, and the
// ownership of the translated code when Machines are copied and moved.
#include <gtest/gtest.h>

#include <bit>
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

/// Bit patterns as doubles (NaN payloads survive every copy).
double FromBits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

// TORC on native code: eq/ne/br.eq/br.ne in the d and i forms, the flag
// written to a fresh register or over either operand, twice per Step with
// the operands swapped the second time, over the cross product of values at
// and around CmpTrace's ±9e15 integral bound, 2^63, NaN, ±Inf, -0.0 and
// fractions. Hundreds of differing compares wrap both rings many times; the
// rings (contents, indices, counts) must match the interpreter's after every
// Step, with a trace attached and with none.
TEST(NativeLockstepTest, TorcRecordsDifferingComparesAlike) {
  const coverage::CoverageSpec spec = EightSlotSpec();
  const std::vector<double> values = {
      9e15, -9e15, 8999999999999999.0, -8999999999999999.0, 4503599627370497.0,
      9223372036854775808.0, -9223372036854775808.0, 1e300, NAN, -NAN,
      INFINITY, -INFINITY, -0.0, 0.0, 0.5, -2.5, 3.0, 7.0,
      FromBits(0x7FF8000000000123ULL)};
  const Op ops[] = {Op::kEqD, Op::kNeD, Op::kBrEqD, Op::kBrNeD,
                    Op::kEqI, Op::kNeI, Op::kBrEqI, Op::kBrNeI};
  for (const Op op : ops) {
    for (const int dst : {1, 2, 3}) {  // fresh, aliasing a, aliasing b
      Program p;
      p.num_dregs = 4;
      p.num_iregs = 4;
      p.input_types.assign(2, ir::DType::kDouble);
      p.code = {
          I(Op::kLoadInD, 2, 0, 0, 0),
          I(Op::kLoadInD, 3, 0, 0, 1),
          I(Op::kCvtDToI, 2, 2),  // unwrapped: the int64 operands
          I(Op::kCvtDToI, 3, 3),
          I(op, dst, 2, 3, 6),
          I(Op::kCov, 0, 0, 0, 1),
          I(op, dst, 3, 2, 8),
          I(Op::kCov, 0, 0, 0, 2),
          I(Op::kHalt),
      };
      for (const bool traced : {true, false}) {
        lockstep::Planes planes;
        planes.sink = true;
        planes.cmp_trace = traced;
        lockstep::Side native(p, spec, planes);
        lockstep::Side reference(p, spec, planes);
        for (const double a : values) {
          for (const double b : values) {
            const std::vector<ir::Value> in = {ir::Value::Real(ir::DType::kDouble, a),
                                               ir::Value::Real(ir::DType::kDouble, b)};
            native.machine().SetInputs(in);
            reference.machine().SetInputs(in);
            ASSERT_TRUE(native.Step(true));
            ASSERT_TRUE(reference.Step(false));
            ASSERT_EQ(native.Diff(reference), "")
                << OpName(op) << " dst " << dst << " a " << a << " b " << b << " traced "
                << traced;
          }
        }
        const vm::CmpTrace& trace = native.cmp_trace();
        EXPECT_EQ(trace.int_count(), traced ? vm::CmpTrace::kCapacity : 0U) << OpName(op);
        const bool is_d = op == Op::kEqD || op == Op::kNeD || op == Op::kBrEqD ||
                          op == Op::kBrNeD;
        EXPECT_EQ(trace.double_count(), traced && is_d ? vm::CmpTrace::kCapacity : 0U)
            << OpName(op);
      }
    }
  }
}

// min.d/max.d over every ordered and unordered pair of signed zeros,
// infinities, NaNs with payloads and ordinary values, in both operand
// orders (min(-0.0, 0.0) is -0.0 and min(0.0, -0.0) is 0.0), and
// neg.d/abs.d on the same values: bit-identical to the interpreter, whose
// min/max are explicit comparisons — a tie returns the first operand, a NaN
// operand the other one, and two NaNs the second.
TEST(NativeLockstepTest, MinMaxNegAbsMatchTheInterpreterBitForBit) {
  const coverage::CoverageSpec spec = EightSlotSpec();
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, INFINITY, -INFINITY, NAN, -NAN,
      FromBits(0x7FF8000000000123ULL), FromBits(0xFFF4000000000001ULL),
      FromBits(0x7FF0000000000001ULL), 1e-310, -3.5};
  lockstep::Planes planes;
  planes.sink = true;
  for (const Op op : {Op::kMinD, Op::kMaxD, Op::kNegD, Op::kAbsD}) {
    const Program p = OpcodeProgram(I(op, 1, 2, 3));
    lockstep::Side native(p, spec, planes);
    lockstep::Side reference(p, spec, planes);
    for (const double a : values) {
      for (const double b : values) {
        const std::vector<ir::Value> in = {
            ir::Value::Real(ir::DType::kDouble, a), ir::Value::Real(ir::DType::kDouble, b),
            ir::Value::Real(ir::DType::kDouble, 0), ir::Value::Real(ir::DType::kDouble, 0),
            ir::Value::Real(ir::DType::kDouble, 0)};
        native.machine().SetInputs(in);
        reference.machine().SetInputs(in);
        ASSERT_EQ(native.Step(true), reference.Step(false));
        ASSERT_EQ(native.Diff(reference), "") << OpName(op) << " a " << a << " b " << b;
        const double got = native.machine().dreg(1);
        if ((op == Op::kMinD || op == Op::kMaxD) && a == 0.0 && b == 0.0) {
          EXPECT_EQ(std::signbit(got), std::signbit(a))
              << OpName(op) << " of two zeros returns its first operand";
        }
        if ((op == Op::kMinD || op == Op::kMaxD) && (std::isnan(a) || std::isnan(b))) {
          const double expect = std::isnan(a) ? b : a;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expect))
              << OpName(op) << " of a NaN pair returns the operand that is not NaN, else b";
        }
      }
    }
  }
}

/// Runs `p` in lockstep under every plane configuration.
void ExpectLockstepEverywhere(const Program& p, int tuples) {
  const coverage::CoverageSpec spec = EightSlotSpec();
  Rng rng(23);
  for (const lockstep::Planes& planes : lockstep::PlaneMatrix()) {
    EXPECT_TRUE(lockstep::Run(p, spec, planes, rng, tuples));
  }
}

// Register homes: more d and i values live at once than there are homes
// (14 xmm, 6 to 8 general), so linear scan spills some for their whole
// interval while the rest keep theirs across the branches and TORC records
// in between. Every loaded value is read again at the end, in reverse
// order; a few are read many times, which is what keeps them out of the
// spill set.
TEST(NativeAllocatorTest, MoreLiveValuesThanHomesSpill) {
  constexpr int kD = 24;
  constexpr int kI = 12;
  Program p;
  p.num_dregs = kD + 2;
  p.num_iregs = kI + 3;
  p.input_types.assign(kD, ir::DType::kDouble);
  p.input_types.insert(p.input_types.end(), kI, ir::DType::kInt32);
  p.output_types = {ir::DType::kDouble, ir::DType::kInt32};
  for (int k = 0; k < kD; ++k) p.code.push_back(I(Op::kLoadInD, k, 0, 0, k));
  for (int k = 0; k < kI; ++k) p.code.push_back(I(Op::kLoadInI, k, 0, 0, kD + k));
  const int acc_d = kD;
  const int acc_i = kI;
  const int flag = kI + 1;
  p.code.push_back(I(Op::kMovD, acc_d, 3));
  p.code.push_back(I(Op::kMovI, acc_i, 2));
  for (int round = 0; round < 4; ++round) {  // d3 and i2 are the hot ones
    p.code.push_back(I(Op::kMulD, acc_d, acc_d, 3));
    p.code.push_back(I(Op::kAddI, acc_i, acc_i, 2, 0, 0, 0, ir::DType::kInt32));
    const auto skip = static_cast<int>(p.code.size()) + 3;
    p.code.push_back(I(Op::kBrLtD, flag, acc_d, 3, skip));
    p.code.push_back(I(Op::kCov, 0, 0, 0, round));
    p.code.push_back(I(Op::kSubD, acc_d, acc_d, 5));
  }
  // Differing compares at the peak of the pressure: TORC's routines use
  // rsi, rdi and xmm2, which are homes here, so the stub saves them.
  p.code.push_back(I(Op::kNeD, flag, 0, 1));
  p.code.push_back(I(Op::kCovIf, 0, flag, 0, 4, 5));
  p.code.push_back(I(Op::kEqI, flag, 0, 1));
  p.code.push_back(I(Op::kCovIf, 0, flag, 0, 6, 7));
  for (int k = kD; k-- > 0;) p.code.push_back(I(Op::kAddD, acc_d, acc_d, k));
  for (int k = kI; k-- > 0;) {
    p.code.push_back(I(Op::kXorBitsI, acc_i, acc_i, k, 0, 0, 0, ir::DType::kInt32));
  }
  p.code.push_back(I(Op::kStoreOutD, 0, acc_d, 0, 0));
  p.code.push_back(I(Op::kStoreOutI, 0, acc_i, 0, 1));
  p.code.push_back(I(Op::kHalt));
  ExpectLockstepEverywhere(p, 40);
}

// Every out-of-line path taken inside live intervals: div.d, sqrt.d and
// pow.d call the slow hook; cvt.d2i saturates and min.d/max.d meet NaN
// through their slow stubs; mcdc calls out on a new evaluation; and margin
// sites call their hook. Values loaded before each call are read after it,
// so a home the call clobbered that is not reloaded shows in the outputs.
TEST(NativeAllocatorTest, SlowPathsInsideLiveIntervals) {
  Program p;
  p.num_dregs = 12;
  p.num_iregs = 8;
  p.input_types = {ir::DType::kDouble, ir::DType::kDouble, ir::DType::kDouble,
                   ir::DType::kInt32, ir::DType::kInt8};
  p.output_types = {ir::DType::kDouble, ir::DType::kDouble, ir::DType::kInt32,
                    ir::DType::kInt32};
  p.const_d = {{10, 3.0}};
  p.const_i = {{6, 5}};
  p.code = {
      I(Op::kLoadInD, 0, 0, 0, 0),
      I(Op::kLoadInD, 1, 0, 0, 1),
      I(Op::kLoadInD, 2, 0, 0, 2),
      I(Op::kLoadInI, 0, 0, 0, 3),
      I(Op::kLoadInI, 1, 0, 0, 4),
      I(Op::kDivD, 3, 0, 1),
      I(Op::kSqrtD, 4, 2),
      I(Op::kPowD, 5, 0, 10),
      I(Op::kCvtDToI, 2, 1, 0, 0, 0, 0, ir::DType::kInt32),
      I(Op::kMinD, 6, 0, 1),
      I(Op::kMaxD, 7, 2, 6),
      I(Op::kAndBitsI, 3, 0, 6, 0, 0, 0, ir::DType::kInt32),
      I(Op::kMcdcEval, 0, 3, 1, 0, 6),
      I(Op::kBrLtD, 4, 3, 10, 16),
      I(Op::kCov, 0, 0, 0, 1),
      I(Op::kAddD, 3, 3, 10),
      I(Op::kAddD, 8, 3, 4),
      I(Op::kAddD, 8, 8, 5),
      I(Op::kAddD, 8, 8, 6),
      I(Op::kAddD, 9, 7, 0),
      I(Op::kAddD, 9, 9, 1),
      I(Op::kAddD, 9, 9, 2),
      I(Op::kAddI, 5, 0, 1, 0, 0, 0, ir::DType::kInt32),
      I(Op::kAddI, 5, 5, 2, 0, 0, 0, ir::DType::kInt32),
      I(Op::kAddI, 5, 5, 3, 0, 0, 0, ir::DType::kInt32),
      I(Op::kStoreOutD, 0, 8, 0, 0),
      I(Op::kStoreOutD, 0, 9, 0, 1),
      I(Op::kStoreOutI, 0, 5, 0, 2),
      I(Op::kStoreOutI, 0, 6, 0, 3),
      I(Op::kHalt),
  };
  p.margins = {
      MarginSite{6, 0, 0, 1, {true, 0}, {true, 1}, MarginSite::Kind::kDiff},
      MarginSite{13, 0, 2, 3, {false, 0}, {true, 2}, MarginSite::Kind::kNegAbsDiff},
      // d3 and d4 are read for the last time where d8 is born: the hook's
      // reload there must not hand one home to two registers.
      MarginSite{16, 0, 6, 7, {true, 3}, {true, 4}, MarginSite::Kind::kDiff},
      MarginSite{20, 0, 4, 5, {true, 7}, {false, 1}, MarginSite::Kind::kDiff},
  };
  ExpectLockstepEverywhere(p, 200);
}

// A loop whose accumulators, bound and constants stay live across its back
// edge: up to 15 passes (the input's low four bits), each reading what the
// last one wrote, then outputs read after the loop. d0 is read early in the
// body and never after the loop, so only the back edge keeps it live past
// the fresh d5 below it.
TEST(NativeAllocatorTest, LoopCarriesValuesAcrossItsBackEdge) {
  Program p;
  p.num_dregs = 6;
  p.num_iregs = 6;
  p.input_types = {ir::DType::kInt32, ir::DType::kDouble};
  p.output_types = {ir::DType::kDouble, ir::DType::kInt32};
  p.const_d = {{4, 0.5}};
  p.const_i = {{4, 15}, {5, 1}};
  p.code = {
      I(Op::kLoadInI, 0, 0, 0, 0),
      I(Op::kAndBitsI, 0, 0, 4, 0, 0, 0, ir::DType::kInt32),
      I(Op::kLoadInD, 0, 0, 0, 1),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 1.0),
      I(Op::kLoadConstI, 1, 0, 0, 0, 0, 0.0),
      I(Op::kJmpIfZero, 0, 0, 0, 15),  // pc 5
      I(Op::kMulD, 1, 1, 4),           // pc 6: the loop body
      I(Op::kAddD, 1, 1, 0),           // d0's last read in the body...
      I(Op::kMulD, 5, 1, 4),           // ...then a fresh value that needs a home
      I(Op::kAddD, 1, 1, 5),
      I(Op::kAddI, 1, 1, 0, 0, 0, 0, ir::DType::kInt32),
      I(Op::kCov, 0, 0, 0, 2),
      I(Op::kSubI, 0, 0, 5, 0, 0, 0, ir::DType::kInt32),
      I(Op::kBrGtI, 2, 0, 3, 15),      // pc 13: i3 is 0, never written
      I(Op::kJmp, 0, 0, 0, 6),         // pc 14: the back edge
      I(Op::kStoreOutD, 0, 1, 0, 0),   // pc 15
      I(Op::kStoreOutI, 0, 1, 0, 1),
      I(Op::kHalt),
  };
  ExpectLockstepEverywhere(p, 200);
}

// Narrow stores and dropped masks only where every value fits: flags are
// written over registers that held wide values (inputs, a pooled 40-bit
// constant, an int8 wrap that turns negative), read and never read, and
// mcdc evaluations pack wide and negative values, and narrow ones whose
// masks the template may leave out.
TEST(NativeAllocatorTest, FlagsAndMcdcOverWideRegisters) {
  using ir::DType;
  Program p;
  p.num_dregs = 1;
  p.num_iregs = 10;
  p.input_types = {DType::kInt32, DType::kInt32, DType::kInt8};
  p.output_types = {DType::kInt32};
  p.const_i = {{4, std::int64_t{0x1234567890}}, {5, 255}, {6, 0}};
  p.code = {
      I(Op::kLoadInI, 0, 0, 0, 0),
      I(Op::kLoadInI, 1, 0, 0, 1),
      I(Op::kLoadInI, 2, 0, 0, 2),
      I(Op::kMcdcEval, 0, 0, 1, 0, 2),                    // wide values, mask, outcome
      I(Op::kLoadInI, 3, 0, 0, 0),
      I(Op::kAndBitsI, 7, 1, 5, 0, 0, 0, DType::kInt32),  // 8 bits...
      I(Op::kWrapI, 7, 7, 0, 0, 0, 0, DType::kInt8),      // ...then maybe negative
      I(Op::kLtI, 3, 1, 2),                               // over an input, never read
      I(Op::kLtI, 4, 2, 1),                               // over the pooled constant
      I(Op::kGtI, 8, 1, 6),
      I(Op::kAndBitsI, 9, 0, 5, 0, 0, 0, DType::kInt32),  // fits 8 bits
      I(Op::kMcdcEval, 0, 9, 8, 0, 8),                    // narrow: masks may go
      I(Op::kMcdcEval, 0, 7, 9, 0, 7),                    // a negative outcome byte
      I(Op::kEqI, 7, 7, 6),                               // over the int8 wrap
      I(Op::kLtI, 0, 0, 1),                               // over an input, read below
      I(Op::kCovIf, 0, 0, 0, 1, 2),
      I(Op::kAddI, 1, 0, 7, 0, 0, 0, DType::kInt32),
      I(Op::kStoreOutI, 0, 1, 0, 0),
      I(Op::kHalt),
  };
  ExpectLockstepEverywhere(p, 200);
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
