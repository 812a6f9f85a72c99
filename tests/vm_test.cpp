// Direct bytecode-level tests of the Machine (hand-assembled programs).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "coverage/sink.hpp"
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
