// Tests of the generated C fuzzing code (Figure 3/4 artifacts).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <regex>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "codegen/cemit.hpp"
#include "codegen/lower.hpp"
#include "ir/builder.hpp"

namespace cftcg {
namespace {

using ir::BlockKind;
using ir::DType;
using ir::ModelBuilder;

std::string EmitFor(std::unique_ptr<ir::Model> model) {
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  auto code = cm.value()->EmitFuzzingCode();
  EXPECT_TRUE(code.ok()) << code.message();
  return code.take();
}

TEST(CEmitTest, DriverMatchesFigure3Structure) {
  // Rebuild the paper's SolarPV inport layout: int8 + int32 + int32 = 9.
  auto model = bench_models::Build("SolarPV").take();
  const std::string code = EmitFor(std::move(model));
  // The per-iteration tuple length of Figure 3.
  EXPECT_NE(code.find("const size_t dataLen = 9;"), std::string::npos);
  // The tuple-splitting loop, decoding each tuple through the per-field
  // memcpys of SolarPV_decode.
  EXPECT_NE(code.find("while ((i + 1) * dataLen <= size)"), std::string::npos);
  EXPECT_NE(code.find("SolarPV_decode(data + i * dataLen, &Enable, &Power, &PanelID);"),
            std::string::npos);
  EXPECT_NE(code.find("memcpy(Enable, tuple + 0, 1);"), std::string::npos);
  EXPECT_NE(code.find("memcpy(Power, tuple + 1, 4);"), std::string::npos);
  EXPECT_NE(code.find("memcpy(PanelID, tuple + 5, 4);"), std::string::npos);
  // Init before the loop, step inside it.
  EXPECT_NE(code.find("SolarPV_init();"), std::string::npos);
  EXPECT_NE(code.find("SolarPV_step("), std::string::npos);
}

TEST(CEmitTest, InstrumentationCallsPresent) {
  ModelBuilder mb("m");
  auto a = mb.Inport("a", DType::kBool);
  auto b = mb.Inport("b", DType::kBool);
  mb.Outport("y", mb.And({a, b}, "land"));
  const std::string code = EmitFor(mb.Build());
  // Mode (a): if/else instrumentation around boolean inputs.
  EXPECT_NE(code.find("CoverageStatistics("), std::string::npos);
  EXPECT_NE(code.find("McdcRecord("), std::string::npos);
}

TEST(CEmitTest, UninstrumentedOmitsCoverage) {
  auto model = bench_models::Build("AFC").take();
  auto cm = CompiledModel::FromModel(std::move(model));
  ASSERT_TRUE(cm.ok());
  codegen::LoweringOptions opts;
  opts.model_instrumentation = false;
  auto program = codegen::LowerToBytecode(cm.value()->scheduled(), opts);
  ASSERT_TRUE(program.ok()) << program.message();
  auto code = codegen::EmitC(program.value(), "AFC");
  ASSERT_TRUE(code.ok()) << code.message();
  // Only the prelude's extern declarations may mention the coverage calls;
  // the model step body must not invoke CoverageStatistics with a slot id.
  const std::string body = code.value().substr(code.value().find("_step("));
  EXPECT_EQ(body.find("CoverageStatistics("), std::string::npos);
}

// The edge-instrumented (Fuzz Only) program has no C form: compiled C gets
// its edges from the compiler's own instrumentation.
TEST(CEmitTest, EdgeProbesAreRefused) {
  auto cm = CompiledModel::FromModel(bench_models::Build("AFC").take());
  ASSERT_TRUE(cm.ok());
  auto code = codegen::EmitC(cm.value()->fuzz_only(), "AFC");
  ASSERT_FALSE(code.ok());
  EXPECT_NE(code.message().find("edge probe"), std::string::npos) << code.message();
}

// A hand-built program names its ports too; names that do not match the
// port types are refused.
TEST(CEmitTest, PortNameMismatchIsRefused) {
  vm::Program p;
  p.input_types = {DType::kDouble};
  p.code = {vm::Insn{}};
  EXPECT_FALSE(codegen::EmitC(p, "m").ok());
  p.input_names = {"u"};
  EXPECT_TRUE(codegen::EmitC(p, "m").ok());
}

// A port name that is not a C identifier, or that a register, the prelude
// or the driver already uses, is renamed; distinct ports stay distinct.
TEST(CEmitTest, PortNamesBecomeDistinctIdentifiers) {
  vm::Program p;
  p.input_types = {DType::kDouble, DType::kDouble, DType::kDouble, DType::kDouble};
  p.input_names = {"d0", "i", "a b", "a_b"};
  p.code = {vm::Insn{}};
  auto code = codegen::EmitC(p, "m");
  ASSERT_TRUE(code.ok()) << code.message();
  EXPECT_NE(code.value().find("void m_step(real_T d0_, real_T i_, real_T a_b, real_T a_b_)"),
            std::string::npos)
      << code.value();
}

// The Switch's control input against its threshold is one conditional jump
// on a `>=` of the inport's register against the pooled 0, with one
// CoverageStatistics per outcome: the taken arm's before the jump target,
// the other at it.
TEST(CEmitTest, SwitchLowersToIfElse) {
  ModelBuilder mb("m");
  auto c = mb.Inport("c", DType::kDouble);
  mb.Outport("y", mb.Switch(mb.Constant(1.0), c, mb.Constant(2.0), 0.0, "sw"));
  const std::string code = EmitFor(mb.Build());
  std::smatch load;
  ASSERT_TRUE(std::regex_search(code, load, std::regex(R"((d\d+) = c;)"))) << code;
  std::smatch zero;
  ASSERT_TRUE(std::regex_search(code, zero, std::regex(R"(const double (d\d+) = 0x0p\+0;)")));
  std::smatch branch;
  ASSERT_TRUE(std::regex_search(
      code, branch,
      std::regex(R"(/\* sw \*/\n  if \(!\(i\d+ = )" + load[1].str() + " >= " + zero[1].str() +
                 R"(\)\) goto (L\d+);\n  CoverageStatistics\((\d+)\);)")))
      << code;
  const std::string arm = branch[1].str() + R"(:\n  CoverageStatistics\((\d+)\);)";
  std::smatch other;
  ASSERT_TRUE(std::regex_search(code, other, std::regex(arm))) << code;
  EXPECT_NE(branch[2].str(), other[1].str());
}

// The TCP chart's state machine: its block comment, its state slot (a
// static named after the chart's state variable) loaded once, one
// compare-and-branch of the loaded state per chart state (the switch's
// cases), and the state stored back.
TEST(CEmitTest, ChartLowersToSwitchCase) {
  auto model = bench_models::Build("TCP").take();
  const ir::Block* chart = model->FindBlock("connection");
  ASSERT_NE(chart, nullptr);
  ASSERT_TRUE(chart->chart().has_value());
  const std::size_t states = chart->chart()->states.size();
  const std::string code = EmitFor(std::move(model));
  EXPECT_NE(code.find("  /* connection */\n"), std::string::npos);
  std::smatch slot;
  ASSERT_TRUE(std::regex_search(
      code, slot, std::regex(R"(static int64_t (si\d+); /\* connection\.state \*/)")));
  std::smatch load;
  ASSERT_TRUE(std::regex_search(code, load, std::regex("(i\\d+) = " + slot[1].str() + ";")));
  const std::regex case_branch(R"(if \(!\(i\d+ = )" + load[1].str() + R"( == i\d+\)\) goto L\d+;)");
  EXPECT_EQ(static_cast<std::size_t>(std::distance(
                std::sregex_iterator(code.begin(), code.end(), case_branch),
                std::sregex_iterator())),
            states);
  EXPECT_TRUE(std::regex_search(code, std::regex("\n  " + slot[1].str() + R"( = i\d+;)")));
}

class CSyntaxTest : public ::testing::TestWithParam<std::string> {};

// The printed translation unit of every benchmark model compiles as C99
// with no warning under -Wall (skipped without a host C compiler);
// tests/cemit_runtime_test.cpp runs it.
TEST_P(CSyntaxTest, EmittedCodeCompiles) {
  if (std::system("cc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no host C compiler";
  }
  auto model = bench_models::Build(GetParam());
  ASSERT_TRUE(model.ok());
  const std::string code = EmitFor(model.take());
  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/cftcg_emit_" + GetParam() + ".c";
  {
    std::ofstream out(src);
    out << code;
  }
  const std::string cmd =
      "cc -std=c99 -Wall -Werror -c -o " + src + ".o " + src + " 2> " + src + ".log";
  const int rc = std::system(cmd.c_str());
  std::ifstream log(src + ".log");
  std::string log_text((std::istreambuf_iterator<char>(log)), std::istreambuf_iterator<char>());
  EXPECT_EQ(rc, 0) << "compiler said:\n" << log_text << "\n--- code ---\n" << code;
}

INSTANTIATE_TEST_SUITE_P(AllModels, CSyntaxTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

}  // namespace
}  // namespace cftcg
