// Tests of the generated C fuzzing code (Figure 3/4 artifacts).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
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
  codegen::CEmitOptions opts;
  opts.model_instrumentation = false;
  auto code = codegen::EmitC(cm.value()->scheduled(), opts);
  ASSERT_TRUE(code.ok());
  // Only the runtime-helper *definitions* may mention the coverage calls;
  // the model step body must not invoke CoverageStatistics with a slot id.
  const std::string body = code.value().substr(code.value().find("_step("));
  EXPECT_EQ(body.find("CoverageStatistics("), std::string::npos);
}

TEST(CEmitTest, SwitchLowersToIfElse) {
  ModelBuilder mb("m");
  auto c = mb.Inport("c", DType::kDouble);
  mb.Outport("y", mb.Switch(mb.Constant(1.0), c, mb.Constant(2.0), 0.0, "sw"));
  const std::string code = EmitFor(mb.Build());
  EXPECT_NE(code.find("if ((c) >= 0)"), std::string::npos);
}

TEST(CEmitTest, ChartLowersToSwitchCase) {
  auto model = bench_models::Build("TCP").take();
  const std::string code = EmitFor(std::move(model));
  EXPECT_NE(code.find("switch ("), std::string::npos);
  EXPECT_NE(code.find("/* state CLOSED */"), std::string::npos);
  EXPECT_NE(code.find("/* state ESTABLISHED */"), std::string::npos);
}

class CSyntaxTest : public ::testing::TestWithParam<std::string> {};

// The strongest check available offline: the emitted translation unit must
// be syntactically valid C99 (compiled with -fsyntax-only when a host C
// compiler exists; skipped otherwise).
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
      "cc -std=c99 -fsyntax-only -Wall -Werror=implicit-function-declaration " + src +
      " 2> " + src + ".log";
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
