// Runtime equivalence of the emitted C code: the generated translation unit
// is compiled with the host C compiler, driven with random tuple streams,
// and must produce the same outputs AND the same CoverageStatistics events
// as the bytecode VM. This is the strongest possible check that the printed
// Figure 3/4 artifact is the same program the fuzzer executes.
//
// Skipped when no host C compiler is available.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "ir/builder.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace cftcg {
namespace {

bool HaveCc() { return std::system("cc --version > /dev/null 2>&1") == 0; }

/// Appends a main() that reads raw tuples from stdin and prints, per step,
/// the outputs and the sorted deduplicated coverage slots.
std::string HarnessMain(const CompiledModel& cm) {
  const ir::Model& root = cm.model();
  std::string out;
  out += "\n/* === runtime-equivalence harness === */\n";
  out += "#include <stdio.h>\n#include <stdlib.h>\n";
  out += "static int g_slots[65536]; static int g_nslots = 0;\n";
  out += "void CoverageStatistics(int id) { if (g_nslots < 65536) g_slots[g_nslots++] = id; }\n";
  out += "void McdcRecord(int d, uint32_t v, uint32_t m, int o) { (void)d;(void)v;(void)m;(void)o; }\n";
  out += "static int cmp_int(const void* a, const void* b) { return *(const int*)a - *(const int*)b; }\n";
  out += "int main(void) {\n";
  out += StrFormat("  unsigned char buf[%zu];\n", cm.instrumented().TupleSize());
  out += "  " + std::string(cm.model().name()) + "_init();\n";
  out += StrFormat("  while (fread(buf, 1, %zu, stdin) == %zu) {\n",
                   cm.instrumented().TupleSize(), cm.instrumented().TupleSize());
  // Inputs decode through the emitted <model>_decode, exactly as in the
  // generated FuzzTestOneInput driver.
  std::vector<std::string> args;
  std::vector<std::string> decode_args = {"buf"};
  for (ir::BlockId id : root.Inports()) {
    const auto& b = root.block(id);
    out += StrFormat("    %s %s = 0;\n", std::string(ir::DTypeCName(b.out_type(0))).c_str(),
                     b.name().c_str());
    decode_args.push_back("&" + b.name());
    args.push_back(b.name());
  }
  out += "    " + std::string(cm.model().name()) + "_decode(" + JoinStrings(decode_args, ", ") +
         ");\n";
  for (ir::BlockId id : root.Outports()) {
    const auto& b = root.block(id);
    const ir::Wire* w = root.DriverOf(id, 0);
    const auto t = root.block(w->src.block).out_type(w->src.port);
    out += StrFormat("    %s %s = 0;\n", std::string(ir::DTypeCName(t)).c_str(),
                     b.name().c_str());
    args.push_back("&" + b.name());
  }
  out += "    g_nslots = 0;\n";
  out += "    " + std::string(cm.model().name()) + "_step(" + JoinStrings(args, ", ") + ");\n";
  for (ir::BlockId id : root.Outports()) {
    const auto& b = root.block(id);
    const ir::Wire* w = root.DriverOf(id, 0);
    const auto t = root.block(w->src.block).out_type(w->src.port);
    if (ir::DTypeIsFloat(t)) {
      out += StrFormat("    printf(\"o %%.17g\\n\", (double)%s);\n", b.name().c_str());
    } else {
      out += StrFormat("    printf(\"o %%lld\\n\", (long long)%s);\n", b.name().c_str());
    }
  }
  out +=
      "    qsort(g_slots, g_nslots, sizeof(int), cmp_int);\n"
      "    int prev = -1;\n"
      "    for (int i = 0; i < g_nslots; ++i) {\n"
      "      if (g_slots[i] != prev) { printf(\"c %d\\n\", g_slots[i]); prev = g_slots[i]; }\n"
      "    }\n"
      "    printf(\"end\\n\");\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  return out;
}

/// Expected transcript from the VM for the same input stream: Machine::Step,
/// or the bytecode interpreter when `bytecode` is set.
std::string VmTranscript(CompiledModel& cm, const std::vector<std::uint8_t>& stream,
                         bool bytecode = false) {
  vm::Machine machine(cm.instrumented());
  coverage::CoverageSink sink(cm.spec());
  const std::size_t tuple = cm.instrumented().TupleSize();
  std::string out;
  for (std::size_t off = 0; off + tuple <= stream.size(); off += tuple) {
    sink.BeginIteration();
    machine.SetInputsFromBytes(stream.data() + off);
    if (bytecode) {
      machine.StepBytecode(&sink);
    } else {
      machine.Step(&sink);
    }
    for (int o = 0; o < machine.num_outputs(); ++o) {
      const ir::Value v = machine.GetOutput(o);
      if (ir::DTypeIsFloat(v.type())) {
        out += StrFormat("o %.17g\n", v.AsDouble());
      } else {
        out += StrFormat("o %lld\n", static_cast<long long>(v.AsInt64()));
      }
    }
    for (int slot = 0; slot < cm.spec().FuzzBranchCount(); ++slot) {
      if (sink.curr().Test(static_cast<std::size_t>(slot))) out += StrFormat("c %d\n", slot);
    }
    out += "end\n";
  }
  return out;
}

/// The same transcript from the simulation interpreter (sim::Interpreter).
std::string InterpreterTranscript(CompiledModel& cm, const std::vector<std::uint8_t>& stream) {
  sim::Interpreter interp(cm.scheduled(), /*log_signals=*/false);
  coverage::CoverageSink sink(cm.spec());
  const std::size_t tuple = cm.instrumented().TupleSize();
  std::string out;
  for (std::size_t off = 0; off + tuple <= stream.size(); off += tuple) {
    sink.BeginIteration();
    interp.SetInputsFromBytes(stream.data() + off);
    interp.Step(&sink);
    for (int o = 0; o < static_cast<int>(cm.instrumented().output_types.size()); ++o) {
      out += StrFormat("o %lld\n", static_cast<long long>(interp.GetOutput(o).AsInt64()));
    }
    for (int slot = 0; slot < cm.spec().FuzzBranchCount(); ++slot) {
      if (sink.curr().Test(static_cast<std::size_t>(slot))) out += StrFormat("c %d\n", slot);
    }
    out += "end\n";
  }
  return out;
}

/// Compiles the emitted C code plus the harness, runs it on `stream` and
/// returns its transcript (empty, with a test failure, when it cannot).
std::string CompiledTranscript(const CompiledModel& cm, const std::string& tag,
                               const std::vector<std::uint8_t>& stream) {
  auto code = cm.EmitFuzzingCode();
  EXPECT_TRUE(code.ok()) << code.message();
  if (!code.ok()) return "";
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/cftcg_rt_" + tag + ".c";
  const std::string bin = dir + "/cftcg_rt_" + tag;
  {
    std::ofstream out(src);
    out << code.value() << HarnessMain(cm);
  }
  // -fwrapv: the VM defines signed overflow as two's-complement wrap, so
  // the C build must too.
  const int cc = std::system(
      ("cc -std=c99 -O1 -fwrapv -o " + bin + " " + src + " -lm 2> " + src + ".log").c_str());
  EXPECT_EQ(cc, 0) << [&] {
    std::ifstream log(src + ".log");
    return std::string((std::istreambuf_iterator<char>(log)), std::istreambuf_iterator<char>());
  }();
  if (cc != 0) return "";
  const std::string input_path = src + ".in";
  {
    std::ofstream out(input_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
  }
  const std::string got_path = src + ".out";
  EXPECT_EQ(std::system((bin + " < " + input_path + " > " + got_path).c_str()), 0);
  std::ifstream got_file(got_path);
  return std::string((std::istreambuf_iterator<char>(got_file)), std::istreambuf_iterator<char>());
}

class CemitRuntimeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CemitRuntimeTest, CompiledCMatchesVm) {
  if (!HaveCc()) GTEST_SKIP() << "no host C compiler";
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
  ASSERT_EQ(got, want) << "compiled C diverged from the VM on " << GetParam();
}

// Models whose block set stays inside the C emitter's exactly-matched
// numeric envelope (no dynamic division by zero, no float->int overflow in
// unchecked casts). See EXPERIMENTS.md for the full discussion.
INSTANTIATE_TEST_SUITE_P(Models, CemitRuntimeTest,
                         ::testing::Values("SolarPV", "EVCS", "TWC", "CPUTask"));

// The input decode itself: boolean, single and double root inports fed
// boolean bytes other than 0 and 1 and NaN/±Inf payloads. The emitted
// driver must decode them as the VM does (low bit; non-finite reads as 0).
TEST(CemitRuntimeDecodeTest, CompiledCDecodesInputsLikeVm) {
  if (!HaveCc()) GTEST_SKIP() << "no host C compiler";
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
  if (!HaveCc()) GTEST_SKIP() << "no host C compiler";
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
  if (!HaveCc()) GTEST_SKIP() << "no host C compiler";
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

}  // namespace
}  // namespace cftcg
