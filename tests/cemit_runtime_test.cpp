// Runtime equivalence of the printed C (tests/c_transcript.hpp): the
// translation unit codegen::EmitC prints is compiled with the host C
// compiler under UBSan, driven with tuple streams, and must produce the same
// outputs, CoverageStatistics slots and McdcRecord tuples as the VM, step by
// step. The eight benchmark models, a model built on division by zero and
// out-of-range casts, input decode, out-of-range thresholds and bounds, and
// a sweep of every opcode at every width on sentinel operands.
//
// Skipped when no host C compiler is available.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "bench_models/bench_models.hpp"
#include "c_transcript.hpp"
#include "cftcg/pipeline.hpp"
#include "ir/builder.hpp"
#include "lockstep.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace cftcg {
namespace {

/// The transcript of the simulation interpreter (sim::Interpreter), its
/// outputs printed as integers (the saturation test's are).
std::string InterpreterTranscript(CompiledModel& cm, const std::vector<std::uint8_t>& stream) {
  sim::Interpreter interp(cm.scheduled(), /*log_signals=*/false);
  coverage::CoverageSink sink(cm.spec());
  const std::size_t tuple = cm.instrumented().TupleSize();
  std::string out;
  for (std::size_t off = 0; off + tuple <= stream.size(); off += tuple) {
    sink.ResetCampaign();
    interp.SetInputsFromBytes(stream.data() + off);
    interp.Step(&sink);
    for (int o = 0; o < static_cast<int>(cm.instrumented().output_types.size()); ++o) {
      out += StrFormat("o %lld\n", static_cast<long long>(interp.GetOutput(o).AsInt64()));
    }
    out += c_transcript::SinkLines(sink);
  }
  return out;
}

/// The printed C's transcript for a compiled model.
std::string CompiledTranscript(const CompiledModel& cm, const std::string& tag,
                               const std::vector<std::uint8_t>& stream) {
  return c_transcript::CompiledTranscript(cm.instrumented(), cm.model().name(), tag, stream);
}

/// The VM's transcript for a compiled model.
std::string VmTranscript(const CompiledModel& cm, const std::vector<std::uint8_t>& stream,
                         bool bytecode = false) {
  return c_transcript::VmTranscript(cm.instrumented(), cm.spec(), stream,
                                    c_transcript::Inputs::kDecoded, bytecode);
}

class CemitRuntimeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CemitRuntimeTest, CompiledCMatchesVm) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok());
  auto compiled = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();

  // Mixed stream: random tuples plus held repeats, several hundred steps.
  Rng rng(2024);
  const std::size_t tuple = cm->instrumented().TupleSize();
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> cur(tuple);
  for (int step = 0; step < 400; ++step) {
    if (step == 0 || rng.NextBool(0.5)) rng.FillBytes(cur.data(), tuple);
    stream.insert(stream.end(), cur.begin(), cur.end());
  }
  const std::string got = CompiledTranscript(*cm, GetParam(), stream);
  const std::string want = VmTranscript(*cm, stream);
  ASSERT_EQ(c_transcript::FirstDifference(got, want), "")
      << "compiled C diverged from the VM on " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Models, CemitRuntimeTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

// Division by zero, integer and floating, in a divide, a product, a mod and
// a rem, and a float->int cast past the target range: the VM's guarded
// results (x / 0 = 0, a saturated then wrapped cast) hold in the compiled C
// too, with no undefined behaviour on the way.
TEST(CemitRuntimeDeviationTest, DivisionByZeroAndOutOfRangeCastsMatchTheVm) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  using ir::BlockKind;
  using ir::DType;
  ir::ModelBuilder mb("DivZero");
  auto a = mb.Inport("A", DType::kInt32);
  auto b = mb.Inport("B", DType::kInt32);
  auto x = mb.Inport("X", DType::kDouble);
  auto y = mb.Inport("Y", DType::kDouble);
  ir::ParamMap divide;
  divide.Set("ops", ir::ParamValue(std::string("*/")));
  ir::ParamMap to_int16;
  to_int16.Set("to", ir::ParamValue(std::string("int16")));
  mb.Outport("Q", mb.Op(BlockKind::kProduct, "q", {a, b}, std::move(divide)));
  mb.Outport("R", mb.Op(BlockKind::kDivide, "r", {x, y}));
  mb.Outport("M", mb.Op(BlockKind::kMod, "m", {a, b}));
  mb.Outport("F", mb.Op(BlockKind::kRem, "f", {x, y}));
  mb.Outport("C", mb.Op(BlockKind::kDataTypeConversion, "c", {mb.Gain(x, 1e30, "big")},
                        std::move(to_int16)));
  auto compiled = CompiledModel::FromModel(mb.Build());
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  ASSERT_EQ(cm->instrumented().TupleSize(), 24U);

  struct Tuple {
    std::int32_t a, b;
    double x, y;
  };
  const Tuple fixed[] = {
      {7, 0, 1.0, 0.0},
      {-7, 0, -1.0, -0.0},
      {0, 0, 0.0, 0.0},
      {std::numeric_limits<std::int32_t>::min(), -1, 1e300, 1e-300},
      {std::numeric_limits<std::int32_t>::max(), 0, -1e20, 0.0},
      {5, 3, 2.5, 0.0},
  };
  std::vector<std::uint8_t> stream;
  for (const Tuple& t : fixed) {
    std::uint8_t bytes[24];
    std::memcpy(bytes, &t.a, 4);
    std::memcpy(bytes + 4, &t.b, 4);
    std::memcpy(bytes + 8, &t.x, 8);
    std::memcpy(bytes + 16, &t.y, 8);
    stream.insert(stream.end(), bytes, bytes + 24);
  }
  Rng rng(5);
  std::vector<std::uint8_t> random(24 * 200);
  rng.FillBytes(random.data(), random.size());
  for (std::size_t k = 0; k < random.size(); k += 24) {
    if (k % 48 == 0) std::memset(random.data() + k + 4, 0, 4);    // B = 0
    if (k % 72 == 0) std::memset(random.data() + k + 16, 0, 8);   // Y = 0
  }
  stream.insert(stream.end(), random.begin(), random.end());

  const std::string native = VmTranscript(*cm, stream);
  ASSERT_EQ(native, VmTranscript(*cm, stream, /*bytecode=*/true));
  // 7 / 0, 1 / 0, 7 mod 0 and 1 rem 0 are 0; int16(1e30) saturates to
  // INT64_MAX and wraps to -1.
  ASSERT_EQ(native.rfind("o 0\no 0\no 0\no 0\no -1\n", 0), 0U) << native.substr(0, 60);
  ASSERT_EQ(c_transcript::FirstDifference(CompiledTranscript(*cm, "divzero", stream), native), "");
}

// The input decode itself: boolean, single and double root inports fed
// boolean bytes other than 0 and 1 and NaN/±Inf payloads. The emitted
// driver must decode them as the VM does (low bit; non-finite reads as 0).
TEST(CemitRuntimeDecodeTest, CompiledCDecodesInputsLikeVm) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  ir::ModelBuilder mb("Decode");
  auto b = mb.Inport("B", ir::DType::kBool);
  auto s = mb.Inport("S", ir::DType::kSingle);
  auto x = mb.Inport("X", ir::DType::kDouble);
  mb.Outport("NB", mb.Not(b));
  mb.Outport("SO", s);
  mb.Outport("XO", x);
  mb.Outport("XP", mb.Relational("gt", x, mb.Constant(0.0)));
  auto compiled = CompiledModel::FromModel(mb.Build());
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  ASSERT_EQ(cm->instrumented().TupleSize(), 13u);

  const std::uint8_t bools[] = {0x02, 0x00, 0x01, 0x03, 0xFE, 0xFF, 0x80};
  const std::uint32_t singles[] = {0x7FC00000u, 0x7F800000u, 0xFF800000u, 0x7FC00001u,
                                   0xFFFFFFFFu, 0x3FC00000u, 0x80000000u};
  const std::uint64_t doubles[] = {0x7FF8000000000000ull, 0x7FF0000000000000ull,
                                   0xFFF0000000000000ull, 0xFFF8000000000123ull,
                                   0x7FF0000000000001ull, 0xC004000000000000ull,
                                   0x0000000000000001ull};
  std::vector<std::uint8_t> stream;
  for (std::size_t k = 0; k < 49; ++k) {
    std::uint8_t t[13];
    t[0] = bools[k % 7];
    std::memcpy(t + 1, &singles[(k / 7) % 7], 4);
    std::memcpy(t + 5, &doubles[(k + k / 7) % 7], 8);
    stream.insert(stream.end(), t, t + 13);
  }
  const std::string want = VmTranscript(*cm, stream);
  // The first tuple: B = 0x02 reads false, S and X are NaN and read as 0.
  ASSERT_EQ(want.substr(0, want.find("c ")), "o 1\no 0\no 0\no 0\n");
  const std::string got = CompiledTranscript(*cm, "decode", stream);
  ASSERT_EQ(got, want) << "compiled C decodes inputs differently from the VM";
}

// Whole CompareToConstant and Switch thresholds past an int8 signal's range
// compare in the floating domain, as the C promotion does (`(x) < (1000)`
// reads true for every int8), and an int32 Constant of 1e30 holds what the
// C assignment of its saturated literal holds. Native code, the bytecode
// interpreter and the compiled C agree on every step.
TEST(CemitRuntimeThresholdTest, OutOfRangeThresholdsCompareLikeC) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  ir::ModelBuilder mb("Thresholds");
  auto x = mb.Inport("X", ir::DType::kInt8);
  auto y = mb.Inport("Y", ir::DType::kInt32);
  const auto compare = [&](const char* op, double value, const char* name) {
    ir::ParamMap p;
    p.Set("op", ir::ParamValue(std::string(op)));
    p.Set("value", ir::ParamValue(value));
    return mb.Op(ir::BlockKind::kCompareToConstant, name, {x}, std::move(p));
  };
  mb.Outport("Below", compare("lt", 1000.0, "below"));
  mb.Outport("Above", compare("gt", 300.0, "above"));
  mb.Outport("AboveMin", compare("ge", -1000.0, "above_min"));
  mb.Outport("Big", mb.Constant(1e30, ir::DType::kInt32));
  mb.Outport("Sw", mb.Switch(y, x, mb.Constant(7.0, ir::DType::kInt32), 1000.0));
  auto compiled = CompiledModel::FromModel(mb.Build());
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  auto cm = compiled.take();
  Rng rng(17);
  std::vector<std::uint8_t> stream(cm->instrumented().TupleSize() * 200);
  rng.FillBytes(stream.data(), stream.size());
  const std::string native = VmTranscript(*cm, stream);
  ASSERT_EQ(native, VmTranscript(*cm, stream, /*bytecode=*/true));
  ASSERT_EQ(native.rfind("o 1\no 0\no 1\n", 0), 0U)
      << "int8 < 1000 and int8 >= -1000 read true, int8 > 300 false";
  ASSERT_EQ(CompiledTranscript(*cm, "thresholds", stream), native);
}

// Saturation bounds outside the block's integer type clamp to the type's
// range in every engine, never wrap: an int16 block with bounds of ±1e30
// passes every input through, and an int8 block with bounds of ±1000 too.
// Native code, the bytecode interpreter, the simulation interpreter and the
// compiled C agree on every step of a random stream.
TEST(CemitRuntimeSaturationTest, OutOfRangeBoundsClampInEveryEngine) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  struct Case {
    const char* type;
    const char* bound;
  };
  for (const Case& c : {Case{"int16", "1e30"}, Case{"int8", "1000"}}) {
    const std::string xml = StrFormat(R"(<?xml version="1.0" encoding="UTF-8"?>
<model name="Sat">
  <block kind="Inport" name="X">
    <param name="port" kind="int">0</param>
    <param name="type" kind="str">%s</param>
  </block>
  <block kind="Saturation" name="sat">
    <param name="lower" kind="real">-%s</param>
    <param name="upper" kind="real">%s</param>
  </block>
  <block kind="Outport" name="Y"><param name="port" kind="int">0</param></block>
  <wire from="X:0" to="sat:0"/>
  <wire from="sat:0" to="Y:0"/>
</model>
)",
                                      c.type, c.bound, c.bound);
    auto compiled = CompiledModel::FromXml(xml);
    ASSERT_TRUE(compiled.ok()) << compiled.message();
    auto cm = compiled.take();
    const std::size_t tuple = cm->instrumented().TupleSize();
    Rng rng(31);
    std::vector<std::uint8_t> stream(tuple * 300);
    rng.FillBytes(stream.data(), stream.size());
    const std::int16_t five = 5;  // the first input: Sat(5) = 5
    std::memcpy(stream.data(), &five, tuple);
    const std::string native = VmTranscript(*cm, stream);
    ASSERT_EQ(native.rfind("o 5\n", 0), 0U) << c.type << ": " << native.substr(0, 40);
    ASSERT_EQ(native, VmTranscript(*cm, stream, /*bytecode=*/true)) << c.type;
    ASSERT_EQ(native, InterpreterTranscript(*cm, stream)) << c.type;
    ASSERT_EQ(CompiledTranscript(*cm, std::string("sat_") + c.type, stream), native) << c.type;
  }
}

// The printer's per-opcode table against the interpreter's: one program,
// printed as one translation unit, that runs every opcode except the edge
// probe and port/state I/O (which every model runs) at every DType width —
// ldc.d, ldc.i and cov.cond also at every immediate of native_test's set —
// each on fresh, preset destination registers, with every register it
// writes stored to outputs (an integer as its low and high 32 bits) and a
// coverage slot behind every jump. Its operands are native_test's sentinels
// (NaN, infinities, -0.0, 2^63, integer extremes, shift counts of 64 and
// more, zero divisors), taken raw, so the non-finite ones arrive.
TEST(CemitRuntimeOpcodeTest, EveryOpcodeAtEveryWidthMatchesTheInterpreter) {
  if (!c_transcript::HaveCc()) GTEST_SKIP() << "no host C compiler";
  using ir::DType;
  using vm::Op;
  vm::Program p;
  p.input_types.assign(5, DType::kDouble);
  p.input_names = {"A", "B", "IA", "IB", "IAux"};
  int slots = 0;
  int mcdc = 0;
  const auto emit = [&](Op op, int dst, int a = 0, int b = 0, int imm = 0, int aux = 0,
                        double dimm = 0.0, DType t = DType::kDouble) {
    p.code.push_back(vm::Insn{op, t, dst, a, b, imm, aux, dimm});
  };
  // Operands: d0, d1 and (unwrapped) i0, i1, i2; i3 = 32 for the high words.
  emit(Op::kLoadInD, 0, 0, 0, 0);
  emit(Op::kLoadInD, 1, 0, 0, 1);
  for (int k = 0; k < 3; ++k) {
    emit(Op::kLoadInD, 2, 0, 0, 2 + k);
    emit(Op::kCvtDToI, k, 2);
  }
  emit(Op::kLoadConstI, 3, 0, 0, 0, 0, 32.0);
  int nd = 3;
  int ni = 4;
  std::string current;  // the instruction under test, for the legend
  std::vector<std::string> legend;  // what each output holds
  const auto store_d = [&](int reg) {
    emit(Op::kStoreOutD, 0, reg, 0, static_cast<int>(p.output_types.size()));
    p.output_types.push_back(DType::kDouble);
    legend.push_back(current);
  };
  const auto store_i = [&](int reg) {
    const int high = ni++;
    emit(Op::kStoreOutI, 0, reg, 0, static_cast<int>(p.output_types.size()));
    p.output_types.push_back(DType::kUInt32);
    emit(Op::kShrI, high, reg, 3);
    emit(Op::kStoreOutI, 0, high, 0, static_cast<int>(p.output_types.size()));
    p.output_types.push_back(DType::kUInt32);
    legend.insert(legend.end(), {current + " (low)", current + " (high)"});
  };
  const double kDimms[] = {2.0, -0.0, 1e30, -1e30, NAN, 300.7, -129.5};
  for (std::size_t k = 0; k < vm::kNumOps; ++k) {
    const auto op = static_cast<Op>(k);
    if (op == Op::kHalt || op == Op::kEdge || (op >= Op::kLoadInD && op <= Op::kStoreStateI)) {
      continue;
    }
    const bool immediate = op == Op::kLoadConstD || op == Op::kLoadConstI || op == Op::kCovCond;
    for (int t = 0; t < ir::kNumDTypes; ++t) {
      for (const double dimm : kDimms) {
        if (!immediate && dimm != 2.0) continue;
        const vm::OperandEffect fx = vm::EffectOf(op);
        current = StrFormat("%s %s dimm %g", std::string(vm::OpName(op)).c_str(),
                            std::string(ir::DTypeName(static_cast<DType>(t))).c_str(), dimm);
        vm::Insn in{op, static_cast<DType>(t), 0, 0, 1, 0, 2, dimm};
        if ((fx.write_d & vm::kFieldDst) != 0) {
          in.dst = nd++;
          emit(Op::kLoadConstD, in.dst, 0, 0, 0, 0, 0.25);
        }
        if ((fx.write_i & vm::kFieldDst) != 0) {
          in.dst = ni++;
          emit(Op::kLoadConstI, in.dst, 0, 0, 0, 0, 6.0);
        }
        if ((fx.write_i & vm::kFieldB) != 0) {
          in.b = ni++;
          emit(Op::kLoadConstI, in.b, 0, 0, 0, 0, 5.0);
        }
        if (op == Op::kCov) in.imm = slots++;
        if (op == Op::kCovIf || op == Op::kCovCond) {
          in.imm = slots++;
          in.aux = slots++;
        }
        if (op == Op::kMcdcEval) in.imm = 1 + mcdc++;
        if (fx.jumps) in.imm = static_cast<int>(p.code.size()) + 2;
        p.code.push_back(in);
        if (fx.jumps) emit(Op::kCov, 0, 0, 0, slots++);
        vm::ForEachReg(in, fx.write_d, store_d);
        vm::ForEachReg(in, fx.write_i, store_i);
      }
    }
  }
  emit(Op::kHalt, 0);
  p.num_dregs = nd;
  p.num_iregs = ni;
  for (std::size_t k = 0; k < p.output_types.size(); ++k) {
    p.output_names.push_back(StrFormat("O%zu", k));
  }
  coverage::CoverageSpec spec;
  spec.AddDecision("probes", slots);
  for (int k = 0; k < mcdc; ++k) spec.AddDecision(StrFormat("mcdc%d", k), 2);

  const std::vector<double>& ds = lockstep::DoubleSentinels();
  const std::vector<std::int64_t>& is = lockstep::IntSentinels();
  std::vector<std::uint8_t> stream;
  for (std::size_t n = 0; n < ds.size() * ds.size(); ++n) {
    const double fields[5] = {ds[n % ds.size()], ds[(n / ds.size()) % ds.size()],
                              static_cast<double>(is[n % is.size()]),
                              static_cast<double>(is[(n / is.size() + n) % is.size()]),
                              static_cast<double>(n % 3 == 0 ? 0 : 1)};
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(fields);
    stream.insert(stream.end(), bytes, bytes + sizeof(fields));
  }
  const std::string want = c_transcript::VmTranscript(p, spec, stream, c_transcript::Inputs::kRaw,
                                                      /*bytecode=*/true);
  const std::string got =
      c_transcript::CompiledTranscript(p, "Sweep", "sweep", stream, c_transcript::Inputs::kRaw);
  ASSERT_EQ(c_transcript::FirstDifference(got, want), "")
      << "each step prints the outputs in this order: " << JoinStrings(legend, ", ");
}

}  // namespace
}  // namespace cftcg
