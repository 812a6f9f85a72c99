// Direct bytecode-level tests of the Machine (hand-assembled programs).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "coverage/sink.hpp"
#include "support/numerics.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"
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

TEST(MachineTest, ArithmeticAndOutput) {
  Program p;
  p.num_dregs = 3;
  p.output_types = {ir::DType::kDouble};
  p.code = {
      I(Op::kLoadConstD, 0, 0, 0, 0, 0, 2.5),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 4.0),
      I(Op::kMulD, 2, 0, 1),
      I(Op::kStoreOutD, 0, 2, 0, 0),
      I(Op::kHalt),
  };
  Machine m(p);
  m.Step(nullptr);
  EXPECT_DOUBLE_EQ(m.GetOutput(0).AsDouble(), 10.0);
}

TEST(MachineTest, IntegerWrap) {
  Program p;
  p.num_iregs = 3;
  p.output_types = {ir::DType::kInt8};
  p.code = {
      I(Op::kLoadConstI, 0, 0, 0, 0, 0, 100, ir::DType::kInt8),
      I(Op::kLoadConstI, 1, 0, 0, 0, 0, 100, ir::DType::kInt8),
      I(Op::kAddI, 2, 0, 1, 0, 0, 0, ir::DType::kInt8),
      I(Op::kStoreOutI, 0, 2, 0, 0),
      I(Op::kHalt),
  };
  Machine m(p);
  m.Step(nullptr);
  EXPECT_EQ(m.GetOutput(0).AsInt64(), -56);  // 200 wrapped to int8
}

TEST(MachineTest, JumpsAndCoverage) {
  // if (in0 > 0) cov(0) out=1 else cov(1) out=0
  Program p;
  p.num_dregs = 2;
  p.num_iregs = 1;
  p.input_types = {ir::DType::kDouble};
  p.output_types = {ir::DType::kDouble};
  p.code = {
      I(Op::kLoadInD, 0, 0, 0, 0),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 0.0),
      I(Op::kGtD, 0, 0, 1),
      I(Op::kJmpIfZero, 0, 0, 0, 7),
      I(Op::kCov, 0, 0, 0, 0),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 1.0),
      I(Op::kJmp, 0, 0, 0, 9),
      I(Op::kCov, 0, 0, 0, 1),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 0.0),
      I(Op::kStoreOutD, 0, 1, 0, 0),
      I(Op::kHalt),
  };
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 2);
  coverage::CoverageSink sink(spec);

  Machine m(p);
  const double pos = 5.0;
  sink.BeginIteration();
  m.SetInputsFromBytes(reinterpret_cast<const std::uint8_t*>(&pos));
  m.Step(&sink);
  EXPECT_TRUE(sink.curr().Test(0));
  EXPECT_FALSE(sink.curr().Test(1));
  EXPECT_DOUBLE_EQ(m.GetOutput(0).AsDouble(), 1.0);

  const double neg = -1.0;
  sink.BeginIteration();
  m.SetInputsFromBytes(reinterpret_cast<const std::uint8_t*>(&neg));
  m.Step(&sink);
  EXPECT_TRUE(sink.curr().Test(1));
  EXPECT_DOUBLE_EQ(m.GetOutput(0).AsDouble(), 0.0);
}

TEST(MachineTest, StatePersistsAcrossStepsAndResets) {
  // state += 1 each step; out = state.
  Program p;
  p.num_iregs = 2;
  p.output_types = {ir::DType::kInt32};
  StateSlot s;
  s.is_float = false;
  s.init = 7;
  s.type = ir::DType::kInt32;
  p.state_i = {s};
  p.code = {
      I(Op::kLoadStateI, 0, 0, 0, 0),
      I(Op::kLoadConstI, 1, 0, 0, 0, 0, 1, ir::DType::kInt32),
      I(Op::kAddI, 0, 0, 1, 0, 0, 0, ir::DType::kInt32),
      I(Op::kStoreStateI, 0, 0, 0, 0),
      I(Op::kStoreOutI, 0, 0, 0, 0),
      I(Op::kHalt),
  };
  Machine m(p);
  m.Step(nullptr);
  m.Step(nullptr);
  EXPECT_EQ(m.GetOutput(0).AsInt64(), 9);
  m.Reset();
  m.Step(nullptr);
  EXPECT_EQ(m.GetOutput(0).AsInt64(), 8);
}

TEST(MachineTest, EdgeMap) {
  Program p;
  p.num_edges = 2;
  p.code = {I(Op::kEdge, 0, 0, 0, 1), I(Op::kHalt)};
  Machine m(p);
  std::uint8_t edges[2] = {0, 0};
  m.Step(nullptr, edges);
  EXPECT_EQ(edges[0], 0);
  EXPECT_EQ(edges[1], 1);
}

TEST(MachineTest, McdcEvalReachesSink) {
  Program p;
  p.num_iregs = 3;
  p.code = {
      I(Op::kLoadConstI, 0, 0, 0, 0, 0, 0b101, ir::DType::kUInt32),  // values
      I(Op::kLoadConstI, 1, 0, 0, 0, 0, 0b111, ir::DType::kUInt32),  // mask
      I(Op::kLoadConstI, 2, 0, 0, 0, 0, 1, ir::DType::kBool),        // outcome
      I(Op::kMcdcEval, 0, 0, 1, 0, 2),
      I(Op::kHalt),
  };
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 2);
  coverage::CoverageSink sink(spec);
  Machine m(p);
  m.Step(&sink);
  ASSERT_EQ(sink.evals()[0].size(), 1U);
  const auto e = *sink.evals()[0].begin();
  EXPECT_EQ(coverage::EvalValues(e), 0b101U);
  EXPECT_EQ(coverage::EvalOutcome(e), 1);
}

TEST(MachineTest, SafeMathNeverTraps) {
  Program p;
  p.num_dregs = 3;
  p.num_iregs = 3;
  p.output_types = {ir::DType::kDouble};
  p.code = {
      I(Op::kLoadConstD, 0, 0, 0, 0, 0, 1.0),
      I(Op::kLoadConstD, 1, 0, 0, 0, 0, 0.0),
      I(Op::kDivD, 2, 0, 1),                                       // 1/0 -> 0
      I(Op::kLoadConstI, 0, 0, 0, 0, 0, 5, ir::DType::kInt32),
      I(Op::kLoadConstI, 1, 0, 0, 0, 0, 0, ir::DType::kInt32),
      I(Op::kDivI, 2, 0, 1, 0, 0, 0, ir::DType::kInt32),           // 5/0 -> 0
      I(Op::kLoadConstD, 0, 0, 0, 0, 0, -4.0),
      I(Op::kSqrtD, 0, 0),                                          // sqrt(-4) -> 0
      I(Op::kStoreOutD, 0, 2, 0, 0),
      I(Op::kHalt),
  };
  Machine m(p);
  m.Step(nullptr);
  EXPECT_DOUBLE_EQ(m.GetOutput(0).AsDouble(), 0.0);
}

TEST(MachineTest, ConstantPoolIsPreloaded) {
  Program p;
  p.num_dregs = 2;
  p.num_iregs = 2;
  p.output_types = {ir::DType::kDouble};
  p.const_d = {{1, 2.5}};
  p.const_i = {{0, -7}};
  p.code = {I(Op::kCvtIToD, 0, 0), I(Op::kMulD, 0, 0, 1), I(Op::kStoreOutD, 0, 0, 0, 0),
            I(Op::kHalt)};
  Machine m(p);
  EXPECT_EQ(m.ireg(0), -7);
  EXPECT_DOUBLE_EQ(m.dreg(1), 2.5);
  for (int step = 0; step < 3; ++step) {  // no instruction reloads the pool
    m.Step(nullptr);
    EXPECT_DOUBLE_EQ(m.GetOutput(0).AsDouble(), -17.5);
  }
}

// Each comparison fused with the jz on its result (br.<cmp>) must write the
// same flag and take the same path as the two-instruction form.
TEST(MachineTest, FusedBranchMatchesCompareThenJz) {
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 2);
  const Op cmps[] = {Op::kLtD, Op::kLeD, Op::kGtD, Op::kGeD, Op::kEqD, Op::kNeD,
                     Op::kLtI, Op::kLeI, Op::kGtI, Op::kGeI, Op::kEqI, Op::kNeI};
  for (const Op cmp : cmps) {
    for (const int lhs : {1, 2, 3}) {
      // Operands 0 (lhs) and 1 (2) in both register files; flag in i2.
      const auto make = [&](bool fused) {
        Program p;
        p.num_dregs = 2;
        p.num_iregs = 3;
        p.const_d = {{0, static_cast<double>(lhs)}, {1, 2.0}};
        p.const_i = {{0, lhs}, {1, 2}};
        if (fused) {
          p.code = {I(FusedBranchOf(cmp), 2, 0, 1, 3), I(Op::kCov, 0, 0, 0, 0), I(Op::kHalt),
                    I(Op::kCov, 0, 0, 0, 1), I(Op::kHalt)};
        } else {
          p.code = {I(cmp, 2, 0, 1), I(Op::kJmpIfZero, 0, 2, 0, 4), I(Op::kCov, 0, 0, 0, 0),
                    I(Op::kHalt), I(Op::kCov, 0, 0, 0, 1), I(Op::kHalt)};
        }
        return p;
      };
      const Program plain = make(false);
      const Program fused = make(true);
      coverage::CoverageSink plain_sink(spec);
      coverage::CoverageSink fused_sink(spec);
      Machine pm(plain);
      Machine fm(fused);
      ASSERT_TRUE(pm.Step(&plain_sink));
      ASSERT_TRUE(fm.Step(&fused_sink));
      const std::string what = std::string(OpName(FusedBranchOf(cmp))) + " lhs=" +
                               std::to_string(lhs);
      EXPECT_EQ(fm.ireg(2), pm.ireg(2)) << what;
      EXPECT_EQ(fused_sink.curr().Test(0), plain_sink.curr().Test(0)) << what;
      EXPECT_EQ(fused_sink.curr().Test(1), plain_sink.curr().Test(1)) << what;
      EXPECT_NE(fused_sink.curr().Test(0), fused_sink.curr().Test(1)) << what;
    }
  }
}

// A backward br spends the step budget exactly like a backward jz: a loop
// needing k back-jumps completes iff the budget exceeds k, and an endless
// one is aborted on the budget-th back-jump.
TEST(MachineTest, BackwardFusedBranchSpendsStepBudgetLikeJz) {
  // i0 += 1 until i0 >= limit (i1 = 1, i3 = limit, flag in i2).
  const auto loop = [](bool fused, std::int64_t limit) {
    Program p;
    p.num_iregs = 4;
    p.const_i = {{1, 1}, {3, limit}};
    const Insn add = I(Op::kAddI, 0, 0, 1, 0, 0, 0, ir::DType::kInt32);
    if (fused) {
      p.code = {add, I(Op::kBrGeI, 2, 0, 3, 0), I(Op::kHalt)};
    } else {
      p.code = {add, I(Op::kGeI, 2, 0, 3), I(Op::kJmpIfZero, 0, 2, 0, 0), I(Op::kHalt)};
    }
    return p;
  };
  for (const bool fused : {false, true}) {
    for (std::uint64_t budget = 1; budget <= 5; ++budget) {
      const Program p = loop(fused, 4);  // 3 back-jumps to finish
      Machine m(p);
      m.set_step_budget(budget);
      EXPECT_EQ(m.Step(nullptr), budget > 3) << "fused=" << fused << " budget=" << budget;
      EXPECT_EQ(m.ireg(0), std::min<std::int64_t>(4, static_cast<std::int64_t>(budget)));
    }
    const Program endless = loop(fused, 1'000'000'000);
    Machine m(endless);
    m.set_step_budget(7);
    EXPECT_FALSE(m.Step(nullptr));
    EXPECT_EQ(m.ireg(0), 7) << "fused=" << fused;
  }
}

// br.eq / br.ne feed the comparison-operand trace exactly as eq / ne do.
TEST(MachineTest, FusedEqualityBranchesRecordTorcOperands) {
  const auto make = [](bool fused) {
    Program p;
    p.num_dregs = 2;
    p.num_iregs = 3;
    p.const_d = {{0, 1.5}, {1, 2.5}};
    p.const_i = {{0, 7}, {1, 9}};
    const Op ops[] = {Op::kEqD, Op::kNeD, Op::kEqI, Op::kNeI};
    for (const Op op : ops) {
      const auto next = static_cast<int>(p.code.size()) + 1;
      p.code.push_back(I(fused ? FusedBranchOf(op) : op, 2, 0, 1, next));
    }
    p.code.push_back(I(Op::kHalt));
    return p;
  };
  const Program plain = make(false);
  const Program fused = make(true);
  CmpTrace plain_trace;
  CmpTrace fused_trace;
  Machine pm(plain);
  Machine fm(fused);
  pm.set_cmp_trace(&plain_trace);
  fm.set_cmp_trace(&fused_trace);
  pm.Step(nullptr);
  fm.Step(nullptr);
  ASSERT_GT(plain_trace.int_count(), 0U);
  ASSERT_GT(plain_trace.double_count(), 0U);
  ASSERT_EQ(fused_trace.int_count(), plain_trace.int_count());
  ASSERT_EQ(fused_trace.double_count(), plain_trace.double_count());
  for (std::size_t i = 0; i < plain_trace.int_count(); ++i) {
    EXPECT_EQ(fused_trace.int_at(i), plain_trace.int_at(i));
  }
  for (std::size_t i = 0; i < plain_trace.double_count(); ++i) {
    EXPECT_EQ(fused_trace.double_at(i), plain_trace.double_at(i));
  }
}

// The single-dispatch probes update the MCDC vectors with or without a sink.
TEST(MachineTest, CoverageProbesUpdateRegistersWithoutSink) {
  Program p;
  p.num_iregs = 5;
  p.const_i = {{0, 1}, {1, 0}};  // a true and a false condition
  p.code = {
      I(Op::kCovCond, 2, 0, 3, 0, 1, 4.0),   // true leaf: vals |= 4, mask |= 4
      I(Op::kCovCond, 2, 1, 3, 2, 3, 8.0),   // false leaf: mask |= 8 only
      I(Op::kCovCond, 4, 0, -1, 4, 5, 1.0),  // no mask register
      I(Op::kCovIf, 0, 1, 0, 6, 7),
      I(Op::kHalt),
  };
  Machine detached(p);
  detached.Step(nullptr);
  EXPECT_EQ(detached.ireg(2), 4);
  EXPECT_EQ(detached.ireg(3), 12);
  EXPECT_EQ(detached.ireg(4), 1);

  coverage::CoverageSpec spec;
  spec.AddDecision("d", 8);
  coverage::CoverageSink sink(spec);
  Machine attached(p);
  attached.Step(&sink);
  EXPECT_EQ(attached.ireg(2), 4);
  EXPECT_EQ(attached.ireg(3), 12);
  EXPECT_EQ(attached.ireg(4), 1);
  for (int slot = 0; slot < 8; ++slot) {
    const bool want = slot == 0 || slot == 3 || slot == 4 || slot == 7;
    EXPECT_EQ(sink.curr().Test(static_cast<std::size_t>(slot)), want) << "slot " << slot;
  }
}

// The operand-effect table is the contract the lowering's passes rely on.
// Every opcode runs over sentinel registers: registers it does not declare
// as written must keep their values, and perturbing every register it does
// not declare as read — to zero, to negatives, to the value of the register
// in field `a` (so comparisons and truth tests flip) — must not change what
// it writes, stores or hits.
TEST(OperandEffectTest, EveryOpcodeTouchesOnlyDeclaredRegisters) {
  constexpr int kRegs = 6;  // fields name 1..4; 0 and 5 are named by none
  constexpr int kPerturbations = 3;
  const auto preset_d = [](int variant, int r) {
    const double values[] = {1.25 + r, 0.0, -40.75 - 3 * r, 1.25 + 2};
    return values[variant];
  };
  const auto preset_i = [](int variant, int r) -> std::int64_t {
    const std::int64_t values[] = {5 + r, 0, -33 - 5 * r, 5 + 2};
    return values[variant];
  };
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 8);
  struct Snapshot {
    std::vector<std::uint64_t> d;  // bit patterns
    std::vector<std::int64_t> i;
    double out_d = 0.0;
    double state_d = 0.0;
    std::int64_t state_i = 0;
    std::vector<bool> hits;
  };
  int checked = 0;
  for (int code = 0; code < 256; ++code) {
    const Op op = static_cast<Op>(code);
    if (OpName(op) == "?") continue;
    ++checked;
    const OperandEffect fx = EffectOf(op);
    const Insn in = I(op, 1, 2, 3, fx.jumps ? 1 : 0, 4, 2.0, ir::DType::kInt32);
    // The constant pool doubles as a register preset here.
    // variant 0: every register at its sentinel; otherwise registers outside
    // keep_d / keep_i take the variant's perturbed value.
    const auto run = [&](std::uint8_t keep_d, std::uint8_t keep_i, int variant) {
      Program p;
      p.num_dregs = kRegs;
      p.num_iregs = kRegs;
      p.num_edges = 8;
      p.input_types = {ir::DType::kDouble};
      p.output_types = {ir::DType::kDouble};
      p.state_d = {StateSlot{true, 0.5, ir::DType::kDouble, "sd"}};
      p.state_i = {StateSlot{false, 3.0, ir::DType::kInt32, "si"}};
      std::vector<bool> read_d(kRegs, false);
      std::vector<bool> read_i(kRegs, false);
      ForEachReg(in, keep_d, [&](int r) { read_d[static_cast<std::size_t>(r)] = true; });
      ForEachReg(in, keep_i, [&](int r) { read_i[static_cast<std::size_t>(r)] = true; });
      for (int r = 0; r < kRegs; ++r) {
        const auto u = static_cast<std::size_t>(r);
        p.const_d.push_back({r, preset_d(read_d[u] ? 0 : variant, r)});
        p.const_i.push_back({r, preset_i(read_i[u] ? 0 : variant, r)});
      }
      p.code = {in, I(Op::kHalt)};
      coverage::CoverageSink sink(spec);
      std::uint8_t edges[8] = {};
      Machine m(p);
      EXPECT_TRUE(m.Step(&sink, edges)) << OpName(op);
      Snapshot snap;
      for (int r = 0; r < kRegs; ++r) {
        snap.d.push_back(std::bit_cast<std::uint64_t>(m.dreg(r)));
        snap.i.push_back(m.ireg(r));
      }
      snap.out_d = m.GetOutput(0).AsDouble();
      snap.state_d = m.state_d(0);
      snap.state_i = m.state_i(0);
      for (std::size_t s = 0; s < 8; ++s) snap.hits.push_back(sink.curr().Test(s));
      return snap;
    };
    const Snapshot base = run(0, 0, 0);
    std::vector<bool> writes_d(kRegs, false);
    std::vector<bool> writes_i(kRegs, false);
    ForEachReg(in, fx.write_d, [&](int r) { writes_d[static_cast<std::size_t>(r)] = true; });
    ForEachReg(in, fx.write_i, [&](int r) { writes_i[static_cast<std::size_t>(r)] = true; });
    for (int r = 0; r < kRegs; ++r) {
      const auto u = static_cast<std::size_t>(r);
      if (!writes_d[u]) {
        EXPECT_EQ(base.d[u], std::bit_cast<std::uint64_t>(preset_d(0, r)))
            << OpName(op) << " wrote d" << r;
      }
      if (!writes_i[u]) {
        EXPECT_EQ(base.i[u], preset_i(0, r)) << OpName(op) << " wrote i" << r;
      }
    }
    for (int variant = 1; variant <= kPerturbations; ++variant) {
      const Snapshot moved = run(fx.read_d, fx.read_i, variant);
      const std::string what = std::string(OpName(op)) + " perturbation " + std::to_string(variant);
      for (int r = 0; r < kRegs; ++r) {
        const auto u = static_cast<std::size_t>(r);
        if (writes_d[u]) {
          EXPECT_EQ(moved.d[u], base.d[u]) << what << ": undeclared d read";
        }
        if (writes_i[u]) {
          EXPECT_EQ(moved.i[u], base.i[u]) << what << ": undeclared i read";
        }
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(moved.out_d),
                std::bit_cast<std::uint64_t>(base.out_d))
          << what;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(moved.state_d),
                std::bit_cast<std::uint64_t>(base.state_d))
          << what;
      EXPECT_EQ(moved.state_i, base.state_i) << what;
      EXPECT_EQ(moved.hits, base.hits) << what;
    }
  }
  EXPECT_EQ(checked, static_cast<int>(Op::kCovCond) + 1);  // every opcode, kCovCond last
}

// kNumOps sizes the Machine's dispatch table: it must count every opcode
// OpName names (its switch is exhaustive) and nothing past them.
TEST(ProgramTest, NumOpsCountsEveryOpcode) {
  for (std::size_t k = 0; k < kNumOps; ++k) EXPECT_NE(OpName(static_cast<Op>(k)), "?") << k;
  EXPECT_EQ(OpName(static_cast<Op>(kNumOps)), "?");
}

// The dispatch table pairs handlers with opcodes by position only, so a
// reordered table or an opcode inserted mid-enum would run the wrong
// handler. Each opcode runs on six operand sets and must produce what a
// reference model, matched to the opcode by name, predicts — registers,
// outputs, state, coverage hits, edges, MCDC evaluations and whether it
// jumped. The reference outcomes of any two opcodes differ on some operand
// set (checked below), so any swap of two handlers fails.
TEST(MachineTest, EveryOpcodeComputesItsOwnResult) {
  constexpr int kRegs = 6;
  constexpr int kLanding = 7;  // a taken jump lands on `cov 7`
  constexpr ir::DType kT = ir::DType::kInt32;
  struct Operands {
    double da, db, in_d;
    std::int64_t ia, ib, aux, in_i;
  };
  const Operands kSets[] = {
      {7.5, -2.0, 1.75, 13, 3, 1, 21},
      {2.0, 2.0, -4.5, -7, 2, 0, -8},
      {-2.5, 3.25, 0.0, 5, 5, 1, 0},
      {2.2, 0.5, 9.0, 5'000'000'000, 0, 0, 77},
      {0.0, -3.0, 2.5, 4, 7, 1, 5},
      {-1.25, 4.0, 3.0, 0, -3, 1, -1},
  };

  struct Snapshot {
    std::vector<std::uint64_t> d;  // bit patterns
    std::vector<std::int64_t> i;
    std::uint64_t out_d = 0;
    std::int64_t out_i = 0;
    std::uint64_t state_d = 0;
    std::int64_t state_i = 0;
    std::vector<bool> hits;
    std::vector<std::uint8_t> edges;
    std::vector<std::uint64_t> evals;
    bool operator==(const Snapshot&) const = default;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // Fields: dst 1, a 2, b 3, aux 4, dimm 2.0, imm the jump target (2), the
  // int input/output slot (1) or slot 0 (coverage slot, decision, edge).
  const auto insn_of = [](Op op) {
    int imm = 0;
    if (EffectOf(op).jumps) imm = 2;
    if (op == Op::kLoadInI || op == Op::kStoreOutI) imm = 1;
    return I(op, 1, 2, 3, imm, 4, 2.0, kT);
  };
  const auto initial = [&](const Operands& s) {
    Snapshot snap;
    for (int r = 0; r < kRegs; ++r) {
      snap.d.push_back(bits(r == 2 ? s.da : r == 3 ? s.db : 10.0 + r));
      snap.i.push_back(r == 2 ? s.ia : r == 3 ? s.ib : r == 4 ? s.aux : 100 + r);
    }
    snap.out_d = bits(0.0);
    snap.state_d = bits(0.5);
    snap.state_i = 3;
    snap.hits.assign(8, false);
    snap.edges.assign(8, 0);
    return snap;
  };
  // The reference model: what `in` does to the initial snapshot of `s`.
  const auto reference = [&](const Insn& in, const Operands& s) {
    using namespace cftcg::num;
    Snapshot x = initial(s);
    const double a = s.da;
    const double b = s.db;
    const std::int64_t ia = s.ia;
    const std::int64_t ib = s.ib;
    const auto wrap = [](std::int64_t v) { return ir::WrapToDType(v, kT); };
    double dd = std::bit_cast<double>(x.d[1]);
    std::int64_t& di = x.i[1];
    bool jumped = false;
    bool branch = false;  // a fused compare-and-branch: jumps when di == 0
    switch (in.op) {
      case Op::kHalt: break;
      case Op::kLoadConstD: dd = 2.0; break;
      case Op::kLoadConstI: di = 2; break;
      case Op::kMovD: dd = a; break;
      case Op::kMovI: di = ia; break;
      case Op::kCvtDToI: di = wrap(TruncToI64(a)); break;
      case Op::kCvtIToD: dd = static_cast<double>(ia); break;
      case Op::kWrapI: di = wrap(ia); break;
      case Op::kBoolD: di = a != 0.0; break;
      case Op::kBoolI: di = ia != 0; break;
      case Op::kAddD: dd = a + b; break;
      case Op::kSubD: dd = a - b; break;
      case Op::kMulD: dd = a * b; break;
      case Op::kDivD: dd = SafeDiv(a, b); break;
      case Op::kMinD: dd = std::fmin(a, b); break;
      case Op::kMaxD: dd = std::fmax(a, b); break;
      case Op::kModD: dd = SafeMod(a, b); break;
      case Op::kRemD: dd = SafeRem(a, b); break;
      case Op::kPowD: dd = Finite(std::pow(a, b)); break;
      case Op::kAtan2D: dd = std::atan2(a, b); break;
      case Op::kNegD: dd = -a; break;
      case Op::kAbsD: dd = std::fabs(a); break;
      case Op::kSignD: dd = a > 0.0 ? 1.0 : a < 0.0 ? -1.0 : 0.0; break;
      case Op::kSqrtD: dd = SafeSqrt(a); break;
      case Op::kExpD: dd = Finite(std::exp(a)); break;
      case Op::kLogD: dd = SafeLog(a); break;
      case Op::kFloorD: dd = std::floor(a); break;
      case Op::kCeilD: dd = std::ceil(a); break;
      case Op::kRoundD: dd = std::nearbyint(a); break;
      case Op::kSinD: dd = std::sin(a); break;
      case Op::kCosD: dd = std::cos(a); break;
      case Op::kTanD: dd = Finite(std::tan(a)); break;
      case Op::kAddI: di = wrap(ia + ib); break;
      case Op::kSubI: di = wrap(ia - ib); break;
      case Op::kMulI: di = wrap(ia * ib); break;
      case Op::kDivI: di = wrap(SafeDivI(ia, ib)); break;
      case Op::kMinI: di = std::min(ia, ib); break;
      case Op::kMaxI: di = std::max(ia, ib); break;
      case Op::kModI: di = wrap(SafeModI(ia, ib)); break;
      case Op::kRemI: di = wrap(SafeRemI(ia, ib)); break;
      case Op::kNegI: di = wrap(-ia); break;
      case Op::kAbsI: di = wrap(ia < 0 ? -ia : ia); break;
      case Op::kSignI: di = ia > 0 ? 1 : ia < 0 ? -1 : 0; break;
      case Op::kAndBitsI: di = wrap(ia & ib); break;
      case Op::kOrBitsI: di = wrap(ia | ib); break;
      case Op::kXorBitsI: di = wrap(ia ^ ib); break;
      case Op::kShlI:
        di = wrap(static_cast<std::int64_t>(static_cast<std::uint64_t>(ia) << (ib & 63)));
        break;
      case Op::kShrI: di = wrap(ia >> (ib & 63)); break;
      case Op::kNotL: di = ia == 0; break;
      case Op::kLtD: di = a < b; break;
      case Op::kLeD: di = a <= b; break;
      case Op::kGtD: di = a > b; break;
      case Op::kGeD: di = a >= b; break;
      case Op::kEqD: di = a == b; break;
      case Op::kNeD: di = a != b; break;
      case Op::kLtI: di = ia < ib; break;
      case Op::kLeI: di = ia <= ib; break;
      case Op::kGtI: di = ia > ib; break;
      case Op::kGeI: di = ia >= ib; break;
      case Op::kEqI: di = ia == ib; break;
      case Op::kNeI: di = ia != ib; break;
      case Op::kBrLtD: di = a < b; branch = true; break;
      case Op::kBrLeD: di = a <= b; branch = true; break;
      case Op::kBrGtD: di = a > b; branch = true; break;
      case Op::kBrGeD: di = a >= b; branch = true; break;
      case Op::kBrEqD: di = a == b; branch = true; break;
      case Op::kBrNeD: di = a != b; branch = true; break;
      case Op::kBrLtI: di = ia < ib; branch = true; break;
      case Op::kBrLeI: di = ia <= ib; branch = true; break;
      case Op::kBrGtI: di = ia > ib; branch = true; break;
      case Op::kBrGeI: di = ia >= ib; branch = true; break;
      case Op::kBrEqI: di = ia == ib; branch = true; break;
      case Op::kBrNeI: di = ia != ib; branch = true; break;
      case Op::kJmp: jumped = true; break;
      case Op::kJmpIfZero: jumped = ia == 0; break;
      case Op::kJmpIfNotZero: jumped = ia != 0; break;
      case Op::kLoadInD: dd = s.in_d; break;
      case Op::kLoadInI: di = s.in_i; break;
      case Op::kStoreOutD: x.out_d = bits(a); break;
      case Op::kStoreOutI: x.out_i = wrap(ia); break;  // read back at the port's type
      case Op::kLoadStateD: dd = 0.5; break;
      case Op::kLoadStateI: di = 3; break;
      case Op::kStoreStateD: x.state_d = bits(a); break;
      case Op::kStoreStateI: x.state_i = ia; break;
      case Op::kCov: x.hits[0] = true; break;
      case Op::kEdge: x.edges[0] = 1; break;
      case Op::kMcdcEval:
        x.evals.push_back(coverage::PackEval(static_cast<std::uint32_t>(ia),
                                             static_cast<std::uint32_t>(ib),
                                             static_cast<int>(s.aux)));
        break;
      case Op::kCovIf: x.hits[ia != 0 ? 0 : 4] = true; break;
      case Op::kCovCond:
        x.i[3] |= 2;
        if (ia != 0) di |= 2;
        x.hits[ia != 0 ? 0 : 4] = true;
        break;
    }
    x.d[1] = bits(dd);
    if (branch) jumped = di == 0;
    if (jumped) x.hits[kLanding] = true;
    return x;
  };
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 8);
  const auto run = [&](const Insn& in, const Operands& s) {
    Program p;
    p.num_dregs = kRegs;
    p.num_iregs = kRegs;
    p.num_edges = 8;
    p.input_types = {ir::DType::kDouble, kT};
    p.output_types = {ir::DType::kDouble, kT};
    p.state_d = {StateSlot{true, 0.5, ir::DType::kDouble, "sd"}};
    p.state_i = {StateSlot{false, 3.0, kT, "si"}};
    const Snapshot init = initial(s);
    for (int r = 0; r < kRegs; ++r) {
      const auto u = static_cast<std::size_t>(r);
      p.const_d.push_back({r, std::bit_cast<double>(init.d[u])});
      p.const_i.push_back({r, init.i[u]});
    }
    p.code = {in, I(Op::kHalt), I(Op::kCov, 0, 0, 0, kLanding), I(Op::kHalt)};
    coverage::CoverageSink sink(spec);
    Snapshot snap;
    snap.edges.assign(8, 0);
    Machine m(p);
    m.SetInputs(std::vector<ir::Value>{ir::Value::Real(ir::DType::kDouble, s.in_d),
                                       ir::Value::Int(kT, s.in_i)});
    EXPECT_TRUE(m.Step(&sink, snap.edges.data())) << OpName(in.op);
    for (int r = 0; r < kRegs; ++r) {
      snap.d.push_back(bits(m.dreg(r)));
      snap.i.push_back(m.ireg(r));
    }
    snap.out_d = bits(m.GetOutput(0).AsDouble());
    snap.out_i = m.GetOutput(1).AsInt64();
    snap.state_d = bits(m.state_d(0));
    snap.state_i = m.state_i(0);
    for (std::size_t k = 0; k < 8; ++k) snap.hits.push_back(sink.curr().Test(k));
    snap.evals.assign(sink.evals()[0].begin(), sink.evals()[0].end());
    return snap;
  };
  std::vector<std::vector<Snapshot>> expected(kNumOps);
  for (std::size_t k = 0; k < kNumOps; ++k) {
    const Insn in = insn_of(static_cast<Op>(k));
    for (const Operands& s : kSets) {
      expected[k].push_back(reference(in, s));
      EXPECT_TRUE(run(in, s) == expected[k].back())
          << OpName(in.op) << " on operands " << s.da << ", " << s.db << " / " << s.ia << ", "
          << s.ib;
    }
  }
  for (std::size_t x = 0; x < kNumOps; ++x) {
    for (std::size_t y = x + 1; y < kNumOps; ++y) {
      EXPECT_FALSE(expected[x] == expected[y])
          << OpName(static_cast<Op>(x)) << " and " << OpName(static_cast<Op>(y))
          << " are indistinguishable on these operands";
    }
  }
}

// The Machine decodes each tuple field with ir::Value::FromBytes at offsets
// it precomputes: its input slots read exactly what FromBytes decodes, for
// every DType, on random bytes and on NaN/Inf payloads and boolean bytes
// other than 0 and 1.
TEST(MachineTest, InputDecodeMatchesValueFromBytes) {
  Program p;
  for (int rep = 0; rep < 2; ++rep) {
    for (int t = 0; t < ir::kNumDTypes; ++t) p.input_types.push_back(static_cast<ir::DType>(t));
  }
  const int n = static_cast<int>(p.input_types.size());
  p.num_dregs = n;
  p.num_iregs = n;
  for (int i = 0; i < n; ++i) {
    const bool is_float = ir::DTypeIsFloat(p.input_types[static_cast<std::size_t>(i)]);
    p.code.push_back(I(is_float ? Op::kLoadInD : Op::kLoadInI, i, 0, 0, i));
  }
  p.code.push_back(I(Op::kHalt));
  Machine m(p);
  const std::uint32_t special_f[] = {0x7FC00000u, 0xFFC00001u, 0x7F800000u, 0xFF800000u,
                                     0x7F800001u, 0x00000001u};
  const std::uint64_t special_d[] = {0x7FF8000000000000ull, 0xFFF8000000000abcull,
                                     0x7FF0000000000000ull, 0xFFF0000000000000ull,
                                     0x7FF0000000000001ull, 0x0000000000000001ull};
  Rng rng(3);
  std::vector<std::uint8_t> tuple(p.TupleSize());
  int non_finite = 0;
  int odd_bools = 0;
  for (int k = 0; k < 3000; ++k) {
    rng.FillBytes(tuple.data(), tuple.size());
    std::size_t offset = 0;
    for (const ir::DType t : p.input_types) {
      if (k % 2 == 0 && t == ir::DType::kSingle) {
        std::memcpy(tuple.data() + offset, &special_f[rng.NextBelow(6)], 4);
      } else if (k % 2 == 0 && t == ir::DType::kDouble) {
        std::memcpy(tuple.data() + offset, &special_d[rng.NextBelow(6)], 8);
      }
      offset += ir::DTypeSize(t);
    }
    m.SetInputsFromBytes(tuple.data());
    ASSERT_TRUE(m.Step(nullptr));
    offset = 0;
    for (int i = 0; i < n; ++i) {
      const ir::DType t = p.input_types[static_cast<std::size_t>(i)];
      const std::uint8_t* field = tuple.data() + offset;
      const ir::Value v = ir::Value::FromBytes(t, field);
      if (ir::DTypeIsFloat(t)) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(m.dreg(i)),
                  std::bit_cast<std::uint64_t>(v.AsDouble()))
            << "field " << i;
        float f = 0;
        double x = 0;
        std::memcpy(&f, field, 4);
        if (t == ir::DType::kDouble) std::memcpy(&x, field, 8);
        const bool finite = t == ir::DType::kSingle ? std::isfinite(f) : std::isfinite(x);
        if (!finite) {
          ++non_finite;
          EXPECT_EQ(m.dreg(i), 0.0);
        }
      } else {
        EXPECT_EQ(m.ireg(i), v.AsInt64()) << "field " << i;
        if (t == ir::DType::kBool) {
          if (*field > 1) ++odd_bools;
          EXPECT_EQ(m.ireg(i), *field & 1);
        }
      }
      offset += ir::DTypeSize(t);
    }
  }
  EXPECT_GT(non_finite, 1000);
  EXPECT_GT(odd_bools, 1000);
}

TEST(ProgramTest, DisassembleMentionsOps) {
  Program p;
  p.num_dregs = 2;
  p.num_iregs = 2;
  p.const_d = {{1, -0.25}};
  p.const_i = {{0, 42}};
  p.code = {I(Op::kLoadConstD, 0, 0, 0, 0, 0, 3.5), I(Op::kBrLtD, 1, 0, 1, 3),
            I(Op::kCovCond, 1, 0, -1, 0, 1, 1.0), I(Op::kHalt)};
  const std::string text = Disassemble(p);
  EXPECT_NE(text.find("ldc.d"), std::string::npos);
  EXPECT_NE(text.find("br.lt.d"), std::string::npos);
  EXPECT_NE(text.find("cov.cond"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
  EXPECT_NE(text.find("3.5"), std::string::npos);
  // The constant pool is part of what runs, so the header lists it.
  EXPECT_NE(text.find("; const d1 = -0.25"), std::string::npos) << text;
  EXPECT_NE(text.find("; const i0 = 42"), std::string::npos) << text;
}

// -- Margin side table --------------------------------------------------

// d0 is 5 until instruction 1 overwrites it with 100; the site on pc 1
// compares d0 with the pooled constant d1 = 2. Recorded before pc 1
// dispatches it sees 5 - 2 = 3: outcome 0 (ge) reached, outcome 1 three
// steps (+1 for the boundary) away.
Program MarginProgram() {
  Program p;
  p.num_dregs = 2;
  p.const_d = {{1, 2.0}};
  p.code = {I(Op::kLoadConstD, 0, 0, 0, 0, 0, 5.0), I(Op::kLoadConstD, 0, 0, 0, 0, 0, 100.0),
            I(Op::kHalt)};
  MarginSite m;
  m.pc = 1;
  m.decision = 0;
  m.ge_outcome = 0;
  m.lt_outcome = 1;
  m.lhs = {true, 0};
  m.rhs = {true, 1};
  p.margins = {m};
  return p;
}

coverage::CoverageSpec TwoOutcomeSpec() {
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 2);
  return spec;
}

TEST(MarginSideTableTest, SiteRecordsJustBeforeItsPcDispatches) {
  const Program p = MarginProgram();
  const coverage::CoverageSpec spec = TwoOutcomeSpec();
  coverage::MarginRecorder rec;
  rec.Reset(spec);
  Machine m(p);
  m.set_margins(&rec);
  ASSERT_TRUE(m.Step(nullptr));
  EXPECT_EQ(rec.Distance(0, 0), 0.0);
  EXPECT_EQ(rec.Distance(0, 1), 4.0);  // 3 + 1, not 99 (after) or unreached
  EXPECT_EQ(m.dreg(0), 100.0);         // the side table emits no code
}

// A site on a fused compare-and-branch that is also a jump landing: it
// records on arrival, before the comparison, and an int operand reads as a
// double (cvt.i2d); -|a-b| sites record equality distance.
TEST(MarginSideTableTest, SiteOnFusedBranchRecordsOnJumpArrival) {
  Program p;
  p.num_dregs = 2;
  p.num_iregs = 2;
  p.const_d = {{1, 2.5}};
  p.const_i = {{1, 10}};
  p.code = {
      I(Op::kLoadConstD, 0, 0, 0, 0, 0, 7.0),  // 0
      I(Op::kJmp, 0, 0, 0, 3),                 // 1
      I(Op::kLoadConstD, 0, 0, 0, 0, 0, 50.0), // 2 (skipped)
      I(Op::kBrLtD, 0, 0, 1, 5),               // 3: i0 = d0 < d1, else -> 5
      I(Op::kHalt),                            // 4
      I(Op::kHalt),                            // 5
  };
  MarginSite diff;
  diff.pc = 3;
  diff.decision = 0;
  diff.ge_outcome = 0;
  diff.lt_outcome = 1;
  diff.lhs = {false, 1};  // i1 = 10
  diff.rhs = {true, 0};   // d0 = 7 on arrival
  MarginSite eq = diff;
  eq.decision = 1;
  eq.kind = MarginSite::Kind::kNegAbsDiff;
  eq.lhs = {true, 0};
  eq.rhs = {true, 1};  // -|7 - 2.5| < 0: outcome 1 (lt) reached
  p.margins = {diff, eq};
  coverage::CoverageSpec spec;
  spec.AddDecision("d", 2);
  spec.AddDecision("e", 2);
  coverage::MarginRecorder rec;
  rec.Reset(spec);
  Machine m(p);
  m.set_margins(&rec);
  ASSERT_TRUE(m.Step(nullptr));
  EXPECT_EQ(m.ireg(0), 0);  // 7 < 2.5 is false: the branch was taken to 5
  EXPECT_EQ(rec.Distance(0, 0), 0.0);
  EXPECT_EQ(rec.Distance(0, 1), 4.0);  // 10 - 7 = 3, + 1
  EXPECT_EQ(rec.Distance(1, 1), 0.0);
  EXPECT_EQ(rec.Distance(1, 0), 4.5);  // |7 - 2.5|
}

TEST(MarginSideTableTest, DetachedMachineLeavesTheRecorderUntouched) {
  const Program p = MarginProgram();
  const coverage::CoverageSpec spec = TwoOutcomeSpec();
  coverage::MarginRecorder rec;
  rec.Reset(spec);
  Machine never(p);
  ASSERT_TRUE(never.Step(nullptr));
  Machine detached(p);
  detached.set_margins(&rec);
  detached.set_margins(nullptr);
  ASSERT_TRUE(detached.Step(nullptr));
  for (double d : rec.distances()) EXPECT_EQ(d, coverage::MarginRecorder::kUnreached);
}

TEST(MarginSideTableTest, DisassemblePrintsSitesBeforeTheirInstruction) {
  Program p = MarginProgram();
  MarginSite eq = p.margins[0];
  eq.kind = MarginSite::Kind::kNegAbsDiff;
  eq.lhs = {false, 3};
  p.margins.push_back(eq);
  const std::string text = Disassemble(p);
  const std::size_t diff = text.find("; margin decision=0 ge=0 lt=1 d0 - d1\n");
  const std::size_t neg = text.find("; margin decision=0 ge=0 lt=1 -|i3 - d1|\n");
  const std::size_t at0 = text.find("   0  ldc.d");
  const std::size_t at1 = text.find("   1  ldc.d");
  ASSERT_NE(diff, std::string::npos) << text;
  ASSERT_NE(neg, std::string::npos) << text;
  ASSERT_NE(at1, std::string::npos) << text;
  EXPECT_LT(at0, diff);
  EXPECT_LT(diff, neg);
  EXPECT_LT(neg, at1);
}

}  // namespace
}  // namespace cftcg::vm
