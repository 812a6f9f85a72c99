// Campaign self-profiler: VM-plane determinism, parallel merge accounting,
// phase lap bookkeeping, and the profile.json / folded-stack export loop.
//
// The invariants under test mirror the profiler's design contract:
//   * counting is exact and deterministic — the count plane matches pinned
//     captures, and two identical campaigns produce bit-identical dispatch
//     counters (a function of the executed instruction stream, not of wall
//     time);
//   * the merged parallel profile is the element-wise sum of the worker
//     planes, and its step counter equals the campaign's model iterations;
//   * per-block dispatch counts fold back to exactly the total dispatches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/parallel.hpp"
#include "obs/profiler.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"
#include "vm/profile.hpp"

namespace cftcg {
namespace {

std::unique_ptr<CompiledModel> CompileAfc() {
  auto cm = CompiledModel::FromModel(bench_models::Build("AFC").take());
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

fuzz::FuzzBudget ExecBudget(std::uint64_t execs) {
  fuzz::FuzzBudget budget;
  budget.wall_seconds = 300.0;
  budget.max_executions = execs;
  return budget;
}

// -- VM plane ---------------------------------------------------------------

/// FNV-1a over the little-endian bytes of a counter plane: a pinned capture
/// of a whole plane in one number.
std::uint64_t PlaneHash(const std::vector<std::uint64_t>& counters) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t c : counters) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (c >> (8 * byte)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(ExecProfileTest, MergeFromIsElementwiseSum) {
  vm::ExecProfile a;
  a.insn_counts = {1, 2, 3};
  a.steps = 10;
  vm::ExecProfile b;
  b.insn_counts = {10, 20, 30, 40};  // longer: merge must grow
  b.steps = 7;
  a.MergeFrom(b);
  EXPECT_EQ(a.insn_counts, (std::vector<std::uint64_t>{11, 22, 33, 40}));
  EXPECT_EQ(a.steps, 17u);
  EXPECT_EQ(a.TotalDispatches(), 11u + 22 + 33 + 40);
}

// The count plane is exact. Its per-model hashes below were captured while
// a second plane counted every dispatch one by one and equalled it on every
// model; the count plane (one increment per Step and per counted transfer,
// expanded by FlushProfile) must still produce them after a flush. Each
// model runs detached from and attached to a margin recorder (the two
// dispatch-loop specializations), flushed mid-stream.
TEST(ExecProfileTest, CountPlaneMatchesPinnedCaptureOnEveryModel) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"CPUTask", 13308452660211152734ULL}, {"AFC", 11572426400192548780ULL},
      {"TCP", 5331055777987009640ULL},      {"RAC", 4952141217633998868ULL},
      {"EVCS", 16346427545416223230ULL},    {"TWC", 13283889831681857111ULL},
      {"UTPC", 3981650382270230070ULL},     {"SolarPV", 4312657761034092009ULL},
  };
  for (const bench_models::BenchModelInfo& info : bench_models::Roster()) {
    auto model = bench_models::Build(info.name);
    ASSERT_TRUE(model.ok()) << info.name;
    auto compiled = CompiledModel::FromModel(model.take());
    ASSERT_TRUE(compiled.ok()) << compiled.message();
    auto cm = compiled.take();
    const vm::Program& program = cm->instrumented();
    vm::Machine m(program);
    vm::ExecProfile exec;
    exec.AttachTo(program);
    m.set_profile(&exec);
    coverage::CoverageSink sink(cm->spec());
    coverage::MarginRecorder margins;
    margins.Reset(cm->spec());
    Rng rng(7);
    std::vector<std::uint8_t> tuple(std::max<std::size_t>(program.TupleSize(), 1));
    constexpr int kSteps = 1500;
    for (int k = 0; k < kSteps; ++k) {
      if (k % 40 == 0) m.Reset();
      if (k == kSteps / 2) m.set_margins(&margins);
      if (k == kSteps / 3) m.FlushProfile();
      rng.FillBytes(tuple.data(), tuple.size());
      sink.BeginIteration();
      m.SetInputsFromBytes(tuple.data());
      ASSERT_TRUE(m.Step(&sink)) << info.name;
    }
    m.FlushProfile();
    EXPECT_EQ(exec.steps, static_cast<std::uint64_t>(kSteps)) << info.name;
    EXPECT_GT(exec.TotalDispatches(), static_cast<std::uint64_t>(kSteps)) << info.name;
    const auto want = pinned.find(info.name);
    ASSERT_NE(want, pinned.end()) << info.name << " has no pinned count plane";
    EXPECT_EQ(PlaneHash(exec.insn_counts), want->second) << info.name;
  }
}

// ... including a Step the budget aborts: the back-edge transfer it aborts
// on is dispatched but neither taken nor fallen through. Detaching the
// profile flushes it. The counts are worked out by hand: the first Step
// runs the loop body 5 times (i0 = 1..5) and aborts on the 5th jnz; the
// second continues from i0 = 5 through i0 = 1'000'000, 999'995 more passes,
// then the add after the loop and the halt once each.
TEST(ExecProfileTest, CountPlaneMatchesHandCountThroughAHang) {
  // i0 += 1; if i0 < limit goto 0 (flag in i2); then one more add; halt.
  vm::Program p;
  p.num_iregs = 4;
  p.const_i = {{1, 1}, {3, 1'000'000}};
  vm::Insn add;
  add.op = vm::Op::kAddI;
  add.type = ir::DType::kInt32;
  add.dst = 0;
  add.a = 0;
  add.b = 1;
  vm::Insn lt;
  lt.op = vm::Op::kLtI;
  lt.dst = 2;
  lt.a = 0;
  lt.b = 3;
  vm::Insn jnz;
  jnz.op = vm::Op::kJmpIfNotZero;
  jnz.a = 2;
  jnz.imm = 0;
  vm::Insn halt;
  halt.op = vm::Op::kHalt;
  p.code = {add, lt, jnz, add, halt};
  vm::Machine m(p);
  vm::ExecProfile exec;
  exec.AttachTo(p);
  m.set_profile(&exec);
  m.set_step_budget(5);
  EXPECT_FALSE(m.Step(nullptr));  // aborted on the 5th back edge
  m.set_step_budget(0);
  EXPECT_TRUE(m.Step(nullptr));   // runs on to the limit
  m.set_profile(nullptr);
  EXPECT_EQ(exec.insn_counts,
            (std::vector<std::uint64_t>{5 + 999'995, 5 + 999'995, 5 + 999'995, 1, 1}));
  EXPECT_EQ(exec.steps, 2u);
}

// The same oracle through the campaign engines: Begin, RunChunk and
// ImportEntry leave the planes flushed, so a campaign's count plane is the
// pinned capture, sequential and across lanes with imports.
TEST(ExecProfileTest, CampaignCountPlaneMatchesPinnedCapture) {
  auto cm = CompileAfc();
  fuzz::FuzzerOptions options;
  options.seed = 9;
  options.profile_timing = true;
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  const fuzz::CampaignResult one = fuzzer.Run(ExecBudget(1500));
  ASSERT_GT(one.exec_profile.TotalDispatches(), 0u);
  EXPECT_EQ(PlaneHash(one.exec_profile.insn_counts), 12241803956610478903ULL);

  fuzz::ParallelOptions parallel;
  parallel.num_workers = 3;
  parallel.sync_every = 256;
  fuzz::ParallelFuzzer lanes(cm->instrumented(), cm->spec(), options, parallel);
  const fuzz::ParallelCampaignResult three = lanes.Run(ExecBudget(3000));
  ASSERT_GT(three.merged.measure_iterations, 0u);  // imports were replayed
  EXPECT_EQ(PlaneHash(three.merged.exec_profile.insn_counts), 230591977732548509ULL);
}

TEST(ProfilerTest, SequentialCampaignProfileIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    auto cm = CompileAfc();
    fuzz::FuzzerOptions options;
    options.seed = seed;
    options.profile_timing = true;  // arm the phase laps
    fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
    return fuzzer.Run(ExecBudget(2000));
  };
  const fuzz::CampaignResult first = run(21);
  const fuzz::CampaignResult second = run(21);
  ASSERT_GT(first.exec_profile.TotalDispatches(), 0u);
  EXPECT_EQ(first.exec_profile.insn_counts, second.exec_profile.insn_counts);
  EXPECT_EQ(first.exec_profile.steps, second.exec_profile.steps);

  // The instrumented-machine step counter is the campaign's model-iteration
  // count: per-block exec counts therefore account for all VM work.
  EXPECT_EQ(first.exec_profile.steps, first.model_iterations);
}

TEST(ProfilerTest, CountOnlyModeKeepsNoPhaseLaps) {
  auto cm = CompileAfc();
  fuzz::FuzzerOptions options;
  options.seed = 4;  // profile_timing stays false: count-only
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  const fuzz::CampaignResult result = fuzzer.Run(ExecBudget(500));
  EXPECT_GT(result.exec_profile.TotalDispatches(), 0u);
  for (const obs::ProfilePhase phase : {obs::ProfilePhase::kMutate, obs::ProfilePhase::kExecute,
                                        obs::ProfilePhase::kCoverageUpdate}) {
    EXPECT_EQ(result.phase_profile.laps[static_cast<std::size_t>(phase)], 0u)
        << obs::ProfilePhaseName(phase);
  }
}

TEST(ProfilerTest, ParallelMergedProfileSumsWorkerPlanes) {
  auto run = [] {
    auto cm = CompileAfc();
    fuzz::FuzzerOptions options;
    options.seed = 13;
    options.profile_timing = true;
    fuzz::ParallelOptions parallel;
    parallel.num_workers = 2;
    parallel.sync_every = 512;
    fuzz::ParallelFuzzer fuzzer(cm->instrumented(), cm->spec(), options, parallel);
    return fuzzer.Run(ExecBudget(4000));
  };
  const fuzz::ParallelCampaignResult first = run();
  const fuzz::ParallelCampaignResult second = run();

  // Merged counters are deterministic across runs (worker-id-ordered sums of
  // per-worker planes, each deterministic under the fixed schedule).
  EXPECT_EQ(first.merged.exec_profile.insn_counts, second.merged.exec_profile.insn_counts);
  EXPECT_EQ(first.merged.exec_profile.steps, second.merged.exec_profile.steps);

  // The merged step counter accounts for every instrumented-machine step —
  // the campaign's model iterations plus the re-measurement of corpus-sync
  // imports — i.e. the merge saw every worker's execution, once.
  EXPECT_EQ(first.merged.exec_profile.steps,
            first.merged.model_iterations + first.merged.measure_iterations);
  EXPECT_GT(first.merged.exec_profile.TotalDispatches(), 0u);

  // Driver-side phases (idle barrier wait / corpus sync) land in the merge.
  const auto idle = static_cast<std::size_t>(obs::ProfilePhase::kIdle);
  EXPECT_GT(first.merged.phase_profile.laps[idle], 0u);
}

// -- Phase plane ------------------------------------------------------------

TEST(PhaseLapTimerTest, NullSinkIsDisarmed) {
  obs::PhaseLapTimer lap(nullptr);
  EXPECT_FALSE(lap.active());
  lap.Arm();
  lap.Lap(obs::ProfilePhase::kExecute);  // must be a no-op, not a crash
}

TEST(PhaseLapTimerTest, LapsBookToPhases) {
  obs::PhaseProfile profile;
  obs::PhaseLapTimer lap(&profile);
  ASSERT_TRUE(lap.active());
  lap.Arm();
  lap.Lap(obs::ProfilePhase::kMutate);
  lap.Lap(obs::ProfilePhase::kExecute);
  lap.Lap(obs::ProfilePhase::kExecute);
  EXPECT_EQ(profile.laps[static_cast<std::size_t>(obs::ProfilePhase::kMutate)], 1u);
  EXPECT_EQ(profile.laps[static_cast<std::size_t>(obs::ProfilePhase::kExecute)], 2u);
  EXPECT_GE(profile.Total(), 0.0);
}

// -- Aggregation and export -------------------------------------------------

TEST(CampaignProfileTest, BlockRowsSumToTotalDispatches) {
  auto cm = CompileAfc();
  fuzz::FuzzerOptions options;
  options.seed = 2;
  options.profile_timing = true;
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  const fuzz::CampaignResult result = fuzzer.Run(ExecBudget(1000));

  const obs::CampaignProfile profile = obs::BuildCampaignProfile(
      cm->instrumented(), result.exec_profile, result.phase_profile);
  ASSERT_FALSE(profile.blocks.empty());
  std::uint64_t block_sum = 0;
  for (const auto& b : profile.blocks) block_sum += b.dispatches;
  EXPECT_EQ(block_sum, profile.vm_dispatches);
  EXPECT_EQ(profile.vm_dispatches, result.exec_profile.TotalDispatches());
  EXPECT_EQ(profile.vm_steps, result.exec_profile.steps);
  std::uint64_t opcode_sum = 0;
  for (const auto& o : profile.opcodes) opcode_sum += o.dispatches;
  EXPECT_EQ(opcode_sum, profile.vm_dispatches);
  // Rows are sorted hottest-first.
  for (std::size_t i = 1; i < profile.blocks.size(); ++i) {
    EXPECT_GE(profile.blocks[i - 1].dispatches, profile.blocks[i].dispatches);
  }
}

TEST(CampaignProfileTest, UnattributedProgramFoldsToGlue) {
  // A hand-built program has no lowering-side block attribution: every
  // dispatch must land in the "(glue)" bucket rather than being dropped.
  vm::Program p;
  p.input_types = {ir::DType::kInt8};
  vm::Insn halt;
  halt.op = vm::Op::kHalt;
  p.code = {halt};
  vm::Machine m(p);
  vm::ExecProfile exec;
  exec.AttachTo(p);
  m.set_profile(&exec);
  std::uint8_t input = 0;
  m.SetInputsFromBytes(&input);
  ASSERT_TRUE(m.Step(nullptr));
  m.FlushProfile();  // dispatch counts are exact only after a flush
  EXPECT_EQ(exec.TotalDispatches(), 1u);
  const obs::CampaignProfile profile = obs::BuildCampaignProfile(p, exec, obs::PhaseProfile{});
  ASSERT_EQ(profile.blocks.size(), 1u);
  EXPECT_EQ(profile.blocks[0].name, "(glue)");
  EXPECT_EQ(profile.blocks[0].dispatches, profile.vm_dispatches);
}

TEST(CampaignProfileTest, JsonRoundTripPreservesCounters) {
  auto cm = CompileAfc();
  fuzz::FuzzerOptions options;
  options.seed = 5;
  options.profile_timing = true;
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  const fuzz::CampaignResult result = fuzzer.Run(ExecBudget(800));

  obs::CampaignProfile profile = obs::BuildCampaignProfile(
      cm->instrumented(), result.exec_profile, result.phase_profile);
  profile.model = "AFC";
  profile.mode = "cftcg";
  profile.seed = 5;
  profile.workers = 1;
  profile.elapsed_s = result.elapsed_s;

  auto parsed = obs::ParseCampaignProfile(profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::CampaignProfile& back = parsed.value();
  EXPECT_EQ(back.model, "AFC");
  EXPECT_EQ(back.mode, "cftcg");
  EXPECT_EQ(back.seed, 5u);
  EXPECT_EQ(back.workers, 1);
  EXPECT_EQ(back.vm_steps, profile.vm_steps);
  EXPECT_EQ(back.vm_dispatches, profile.vm_dispatches);
  ASSERT_EQ(back.blocks.size(), profile.blocks.size());
  for (std::size_t i = 0; i < back.blocks.size(); ++i) {
    EXPECT_EQ(back.blocks[i].name, profile.blocks[i].name);
    EXPECT_EQ(back.blocks[i].dispatches, profile.blocks[i].dispatches);
  }
  ASSERT_EQ(back.phases.size(), profile.phases.size());

  // The other two export surfaces stay renderable from the same struct.
  const std::string folded = profile.ToFolded();
  EXPECT_NE(folded.find("cftcg;execute"), std::string::npos);
  EXPECT_NE(profile.RenderText().find("hot blocks"), std::string::npos);
  const std::string diff = obs::RenderProfileDiff(back, profile);
  EXPECT_NE(diff.find("profile diff"), std::string::npos);
}

// A profile.json saved while profiles also carried a sampled time share
// (the top-level "strobe_period" and "samples" keys, per-block "samples"
// and "sample_pct") still loads: the old keys are ignored, and the profile
// renders, diffs against a current profile and folds, its execute time
// split across blocks by dispatch share.
TEST(CampaignProfileTest, OldProfileJsonWithSampleKeysStillLoads) {
  const std::string old_json =
      R"j({"cftcg_profile":1,"model":"AFC","mode":"cftcg","seed":3,"workers":1,)j"
      R"j("elapsed_s":0.5,"vm_steps":1000,"vm_dispatches":120000,)j"
      R"j("strobe_period":97,"samples":1237,)j"
      R"j("phases":[{"name":"mutate","seconds":0.1,"laps":1000},)j"
      R"j({"name":"execute","seconds":0.3,"laps":1000}],)j"
      R"j("blocks":[{"name":"trim","dispatches":90000,"samples":928,"sample_pct":75.0},)j"
      R"j({"name":"(glue)","dispatches":30000,"samples":309,"sample_pct":25.0}],)j"
      R"j("opcodes":[{"name":"add.d","dispatches":120000}]})j";
  auto parsed = obs::ParseCampaignProfile(old_json);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::CampaignProfile& old = parsed.value();
  EXPECT_EQ(old.vm_steps, 1000u);
  EXPECT_EQ(old.vm_dispatches, 120000u);
  ASSERT_EQ(old.blocks.size(), 2u);
  EXPECT_EQ(old.blocks[0].name, "trim");
  EXPECT_DOUBLE_EQ(old.blocks[0].dispatch_pct, 75.0);

  const std::string text = old.RenderText();
  EXPECT_NE(text.find("120000 dispatches"), std::string::npos) << text;
  EXPECT_NE(text.find("trim"), std::string::npos) << text;
  EXPECT_NE(text.find("splits execute time by this share"), std::string::npos) << text;

  const std::string folded = old.ToFolded();
  EXPECT_NE(folded.find("cftcg;mutate 100000\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cftcg;execute;trim 225000\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cftcg;execute;(glue) 75000\n"), std::string::npos) << folded;

  auto cm = CompileAfc();
  fuzz::FuzzerOptions options;
  options.seed = 3;
  options.profile_timing = true;
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  const fuzz::CampaignResult result = fuzzer.Run(ExecBudget(300));
  const obs::CampaignProfile current = obs::BuildCampaignProfile(
      cm->instrumented(), result.exec_profile, result.phase_profile);
  const std::string diff = obs::RenderProfileDiff(old, current);
  EXPECT_NE(diff.find("dispatches: 120000 -> "), std::string::npos) << diff;
  EXPECT_NE(diff.find("trim"), std::string::npos) << diff;
}

TEST(CampaignProfileTest, ParseRejectsForeignJson) {
  EXPECT_FALSE(obs::ParseCampaignProfile("").ok());
  EXPECT_FALSE(obs::ParseCampaignProfile("{}").ok());
  EXPECT_FALSE(obs::ParseCampaignProfile("{\"bench\":\"speed\"}").ok());
  EXPECT_FALSE(obs::ParseCampaignProfile("not json").ok());
}

}  // namespace
}  // namespace cftcg
