// Structural and behavioural checks on the eight Table 2 models.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "support/rng.hpp"

namespace cftcg::bench_models {
namespace {

TEST(RosterTest, EightModelsInPaperOrder) {
  const auto& roster = Roster();
  ASSERT_EQ(roster.size(), 8U);
  EXPECT_EQ(roster.front().name, "CPUTask");
  EXPECT_EQ(roster.back().name, "SolarPV");
  EXPECT_FALSE(Build("NoSuchModel").ok());
  EXPECT_TRUE(Source("NoSuchModel").empty());
}

// Every roster name has an embedded models/<name>.cmx that parses, compiles
// and carries that name.
TEST(RosterTest, EveryModelBuildsAndCompilesUnderItsName) {
  for (const auto& info : Roster()) {
    auto model = Build(info.name);
    ASSERT_TRUE(model.ok()) << info.name << ": " << model.message();
    auto cm = CompiledModel::FromModel(model.take());
    ASSERT_TRUE(cm.ok()) << info.name << ": " << cm.message();
    EXPECT_EQ(cm.value()->model().name(), info.name);
  }
}

// The build embeds models/<name>.cmx byte for byte, and re-embeds a file
// edited since.
class EmbeddedModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EmbeddedModelTest, SourceIsTheCommittedFile) {
  std::ifstream in(std::string(CFTCG_SOURCE_DIR) + "/models/" + GetParam() + ".cmx",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing models/" << GetParam() << ".cmx";
  const std::string file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(Source(GetParam()), file);
}

INSTANTIATE_TEST_SUITE_P(AllModels, EmbeddedModelTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

TEST(SolarPvTest, Figure3InportLayout) {
  auto model = Build("SolarPV").take();
  auto cm = CompiledModel::FromModel(std::move(model));
  ASSERT_TRUE(cm.ok());
  const auto& types = cm.value()->instrumented().input_types;
  ASSERT_EQ(types.size(), 3U);
  EXPECT_EQ(types[0], ir::DType::kInt8);   // Enable
  EXPECT_EQ(types[1], ir::DType::kInt32);  // Power
  EXPECT_EQ(types[2], ir::DType::kInt32);  // PanelID
  EXPECT_EQ(cm.value()->instrumented().TupleSize(), 9U);  // Figure 3's dataLen
}

TEST(SolarPvTest, PanelStateOnlyAdvancesWhenAddressed) {
  auto cm = CompiledModel::FromModel(Build("SolarPV").take());
  ASSERT_TRUE(cm.ok());
  vm::Machine m(cm.value()->instrumented());

  auto step = [&](std::int8_t enable, std::int32_t power, std::int32_t panel) {
    std::uint8_t buf[9];
    buf[0] = static_cast<std::uint8_t>(enable);
    std::memcpy(buf + 1, &power, 4);
    std::memcpy(buf + 5, &panel, 4);
    m.SetInputsFromBytes(buf);
    m.Step(nullptr);
    return m.GetOutput(0).AsInt64();
  };

  // Charging panel 1 for several steps raises its reported charge level.
  const auto first = step(1, 3000, 1);
  std::int64_t last = first;
  for (int k = 0; k < 5; ++k) last = step(1, 3000, 1);
  EXPECT_GT(last % 10000, first % 10000);
  // Addressing panel 2 reports panel 2's fresh state instead.
  const auto other = step(1, 3000, 2);
  EXPECT_NE(other % 10000, last % 10000);
  // Out-of-range panel id hits the default branch (status -1, so the
  // packed low digits differ from any real panel status).
  const auto bad = step(1, 3000, 77);
  EXPECT_NE(((bad % 10000) + 10000) % 10000, ((last % 10000) + 10000) % 10000);
}

TEST(CpuTaskTest, QueueOverflowNeedsSustainedEnqueues) {
  auto cm = CompiledModel::FromModel(Build("CPUTask").take());
  ASSERT_TRUE(cm.ok());
  vm::Machine m(cm.value()->instrumented());
  coverage::CoverageSink sink(cm.value()->spec());

  // Find the Overflow-entry decision (Ready -> Overflow transition).
  coverage::DecisionId overflow = -1;
  for (const auto& d : cm.value()->spec().decisions()) {
    if (d.name.find("Overflow") != std::string::npos && d.name.find("Ready->") != std::string::npos) {
      overflow = d.id;
    }
  }
  ASSERT_NE(overflow, -1) << "overflow transition decision not found";

  auto step = [&](std::uint8_t tid, std::int32_t prio, std::int8_t cmd, std::int8_t tick) {
    std::uint8_t buf[7];
    buf[0] = tid;
    std::memcpy(buf + 1, &prio, 4);
    buf[5] = static_cast<std::uint8_t>(cmd);
    buf[6] = static_cast<std::uint8_t>(tick);
    sink.BeginIteration();
    m.SetInputsFromBytes(buf);
    m.Step(&sink);
    sink.AccumulateIteration();
  };

  // Five enqueues: not enough to overflow the 8-deep queue.
  for (int k = 0; k < 5; ++k) step(1, 10, 1, 0);
  const int taken_slot = cm.value()->spec().OutcomeSlot(overflow, 0);
  EXPECT_FALSE(sink.total().Test(static_cast<std::size_t>(taken_slot)));

  // Nine more enqueues overflow it ("only triggered when the task queue is
  // fulfilled" — §4 of the paper).
  for (int k = 0; k < 9; ++k) step(1, 10, 1, 0);
  EXPECT_TRUE(sink.total().Test(static_cast<std::size_t>(taken_slot)));
}

TEST(TcpTest, HandshakeReachesEstablished) {
  auto cm = CompiledModel::FromModel(Build("TCP").take());
  ASSERT_TRUE(cm.ok());
  vm::Machine m(cm.value()->instrumented());

  auto step = [&](std::int8_t syn, std::int8_t ack, std::int8_t fin, std::int8_t rst,
                  std::int32_t seq, std::int32_t ackno, std::int8_t tmo) {
    std::uint8_t buf[13];
    buf[0] = static_cast<std::uint8_t>(syn);
    buf[1] = static_cast<std::uint8_t>(ack);
    buf[2] = static_cast<std::uint8_t>(fin);
    buf[3] = static_cast<std::uint8_t>(rst);
    std::memcpy(buf + 4, &seq, 4);
    std::memcpy(buf + 8, &ackno, 4);
    buf[12] = static_cast<std::uint8_t>(tmo);
    m.SetInputsFromBytes(buf);
    m.Step(nullptr);
    return m.GetOutput(0).AsInt64() / 1000 % 100;  // chart state code
  };

  // Active open: SYN (snd_nxt = seq+1 = 101), then SYN+ACK acknowledging 101.
  EXPECT_EQ(step(1, 0, 0, 0, 100, 0, 0), 2);    // SYN_SENT
  EXPECT_EQ(step(1, 1, 0, 0, 500, 101, 0), 4);  // ESTABLISHED
  // Peer closes: FIN at our rcv_nxt (501).
  EXPECT_EQ(step(0, 0, 1, 0, 501, 0, 0), 7);    // CLOSE_WAIT
}

TEST(TcpTest, RstResetsFromEstablished) {
  auto cm = CompiledModel::FromModel(Build("TCP").take());
  ASSERT_TRUE(cm.ok());
  vm::Machine m(cm.value()->instrumented());
  auto step = [&](std::int8_t syn, std::int8_t ack, std::int32_t seq, std::int32_t ackno,
                  std::int8_t rst) {
    std::uint8_t buf[13] = {};
    buf[0] = static_cast<std::uint8_t>(syn);
    buf[1] = static_cast<std::uint8_t>(ack);
    buf[3] = static_cast<std::uint8_t>(rst);
    std::memcpy(buf + 4, &seq, 4);
    std::memcpy(buf + 8, &ackno, 4);
    m.SetInputsFromBytes(buf);
    m.Step(nullptr);
    return m.GetOutput(0).AsInt64() / 1000 % 100;
  };
  EXPECT_EQ(step(1, 0, 100, 0, 0), 2);
  EXPECT_EQ(step(1, 1, 500, 101, 0), 4);
  EXPECT_EQ(step(0, 0, 0, 0, 1), 0);  // RST -> CLOSED
}

class ModelStatsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelStatsTest, HasIndustrialScaleStructure) {
  auto model = Build(GetParam());
  ASSERT_TRUE(model.ok());
  auto cm = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(cm.ok()) << cm.message();
  // Same order of magnitude as Table 2 (#Branch 35..179, #Block 125..667).
  EXPECT_GE(cm.value()->NumBranches(), 25) << GetParam();
  EXPECT_LE(cm.value()->NumBranches(), 400) << GetParam();
  EXPECT_GE(cm.value()->NumBlocks(), 25U) << GetParam();
  // Conditions exist (needed for Condition/MCDC metrics).
  EXPECT_GE(cm.value()->spec().conditions().size(), 5U) << GetParam();
}

TEST_P(ModelStatsTest, NotTriviallyCoverable) {
  // 300 purely random iterations must NOT fully cover any benchmark model —
  // otherwise the Table 3 comparison would be meaningless.
  auto model = Build(GetParam());
  ASSERT_TRUE(model.ok());
  auto cm = CompiledModel::FromModel(model.take());
  ASSERT_TRUE(cm.ok());
  vm::Machine m(cm.value()->instrumented());
  coverage::CoverageSink sink(cm.value()->spec());
  Rng rng(1234);
  std::vector<std::uint8_t> buf(cm.value()->instrumented().TupleSize());
  for (int k = 0; k < 300; ++k) {
    rng.FillBytes(buf.data(), buf.size());
    sink.BeginIteration();
    m.SetInputsFromBytes(buf.data());
    m.Step(&sink);
    sink.AccumulateIteration();
  }
  const auto report = coverage::ComputeReport(sink);
  EXPECT_LT(report.outcome_covered, report.outcome_total) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelStatsTest,
                         ::testing::Values("CPUTask", "AFC", "TCP", "RAC", "EVCS", "TWC", "UTPC",
                                           "SolarPV"));

}  // namespace
}  // namespace cftcg::bench_models
