// Campaign durability: checkpoint/resume bit-identity, version gating, and
// hang containment.
//
// The headline invariant under test: a campaign interrupted at ANY point and
// resumed from its checkpoint must end in exactly the state an uninterrupted
// campaign reaches — same corpus (entries, lineage, energies), same coverage
// frontier, same RNG stream position, same counters. The fingerprints from
// checkpoint.hpp condense that state; counters and test-case counts are
// compared directly on top.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"
#include "obs/telemetry.hpp"
#include "support/atomic_file.hpp"
#include "vm/machine.hpp"
#include "vm/program.hpp"

namespace cftcg::fuzz {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<CompiledModel> Compile(std::unique_ptr<ir::Model> model) {
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

FuzzBudget ExecBudget(std::uint64_t execs) {
  FuzzBudget budget;
  budget.wall_seconds = 300.0;  // effectively unlimited; the exec count rules
  budget.max_executions = execs;
  return budget;
}

// -- Sequential resume identity -------------------------------------------

TEST(CheckpointTest, SequentialResumeIsBitIdentical) {
  const std::uint64_t kStop = 1500;
  const std::uint64_t kTotal = 4000;

  auto baseline_cm = Compile(bench_models::BuildAfc());
  FuzzerOptions options;
  options.seed = 42;
  Fuzzer baseline(baseline_cm->instrumented(), baseline_cm->spec(), options);
  const CampaignResult straight = baseline.Run(ExecBudget(kTotal));
  ASSERT_EQ(straight.executions, kTotal);

  // Phase 1: run the same campaign but stop mid-way (chunk boundary — the
  // same inter-execution point a SIGINT checkpoint is taken at) and capture
  // a checkpoint, round-tripping it through the serialized format.
  auto cm1 = Compile(bench_models::BuildAfc());
  Fuzzer first(cm1->instrumented(), cm1->spec(), options);
  first.Begin(ExecBudget(kTotal));
  ASSERT_EQ(first.RunChunk(kStop), kStop);
  const std::string bytes = SerializeCheckpoint(first.MakeCheckpoint());
  const CampaignResult partial = first.Finish();
  ASSERT_EQ(partial.executions, kStop);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  ASSERT_EQ(parsed.value().workers.size(), 1u);

  // Phase 2: resume from the parsed state and run out the remaining budget.
  auto cm2 = Compile(bench_models::BuildAfc());
  FuzzerOptions resume_options = options;
  resume_options.resume = &parsed.value().workers[0];
  Fuzzer second(cm2->instrumented(), cm2->spec(), resume_options);
  const CampaignResult resumed = second.Run(ExecBudget(kTotal));

  EXPECT_EQ(resumed.executions, straight.executions);
  EXPECT_EQ(resumed.model_iterations, straight.model_iterations);
  EXPECT_EQ(resumed.measure_iterations, straight.measure_iterations);
  EXPECT_EQ(resumed.test_cases.size(), straight.test_cases.size());
  EXPECT_EQ(resumed.report.outcome_covered, straight.report.outcome_covered);
  EXPECT_EQ(resumed.corpus_fingerprint, straight.corpus_fingerprint);
  EXPECT_EQ(resumed.coverage_fingerprint, straight.coverage_fingerprint);
  // The generated suite must match input-for-input, not just in count.
  for (std::size_t i = 0; i < resumed.test_cases.size(); ++i) {
    EXPECT_EQ(resumed.test_cases[i].data, straight.test_cases[i].data) << "test case " << i;
  }

  // Phase 3: the same checkpoint (one worker, no round size) resumes as a
  // one-lane driver campaign at the default round size — a single lane's
  // schedule does not depend on it.
  auto cm3 = Compile(bench_models::BuildAfc());
  ParallelOptions one_lane;
  one_lane.resume = &parsed.value();
  const ParallelCampaignResult driven =
      ParallelFuzzer(cm3->instrumented(), cm3->spec(), options, one_lane).Run(ExecBudget(kTotal));
  EXPECT_EQ(driven.rounds, (kTotal - kStop + one_lane.sync_every - 1) / one_lane.sync_every);
  EXPECT_EQ(driven.merged.executions, straight.executions);
  EXPECT_EQ(driven.merged.corpus_fingerprint, straight.corpus_fingerprint);
  EXPECT_EQ(driven.merged.coverage_fingerprint, straight.coverage_fingerprint);
}

TEST(CheckpointTest, SerializationRoundTripIsExact) {
  auto cm = Compile(bench_models::BuildAfc());
  FuzzerOptions options;
  options.seed = 9;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzzer.Begin(ExecBudget(600));
  fuzzer.RunChunk(600);
  const std::string bytes = SerializeCheckpoint(fuzzer.MakeCheckpoint());
  (void)fuzzer.Finish();
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(SerializeCheckpoint(parsed.value()), bytes);
}

// -- Parallel resume identity ---------------------------------------------

void CheckInterruptedResume(int workers) {
  const std::string ckpt_path = "checkpoint_test_parallel.ckpt";
  const std::uint64_t kTotal = 6000;

  FuzzerOptions options;
  options.seed = 7;
  ParallelOptions parallel;
  parallel.num_workers = workers;
  parallel.sync_every = 512;

  auto baseline_cm = Compile(bench_models::BuildAfc());
  ParallelFuzzer baseline(baseline_cm->instrumented(), baseline_cm->spec(), options, parallel);
  const ParallelCampaignResult straight = baseline.Run(ExecBudget(kTotal));
  ASSERT_FALSE(straight.interrupted);

  // Interrupt at the first round barrier: the flag is raised before the run,
  // the workers still complete one full round, then the driver flushes a
  // checkpoint and stops.
  std::atomic<bool> stop{true};
  FuzzerOptions int_options = options;
  int_options.interrupt = &stop;
  int_options.checkpoint_path = ckpt_path;
  auto cm1 = Compile(bench_models::BuildAfc());
  ParallelFuzzer first(cm1->instrumented(), cm1->spec(), int_options, parallel);
  const ParallelCampaignResult partial = first.Run(ExecBudget(kTotal));
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.merged.executions, kTotal);

  auto ckpt = ReadCheckpointFile(ckpt_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.message();
  EXPECT_EQ(ckpt.value().num_workers, static_cast<std::uint32_t>(workers));
  ASSERT_EQ(ckpt.value().workers.size(), static_cast<std::size_t>(workers));
  EXPECT_EQ(ckpt.value().sync_every, parallel.sync_every);  // the driver's real round size

  ParallelOptions resume_parallel = parallel;
  resume_parallel.resume = &ckpt.value();
  auto cm2 = Compile(bench_models::BuildAfc());
  ParallelFuzzer second(cm2->instrumented(), cm2->spec(), options, resume_parallel);
  const ParallelCampaignResult resumed = second.Run(ExecBudget(kTotal));

  EXPECT_EQ(resumed.merged.executions, straight.merged.executions);
  EXPECT_EQ(resumed.rounds, straight.rounds);
  EXPECT_EQ(resumed.imports, straight.imports);
  EXPECT_EQ(resumed.merged.test_cases.size(), straight.merged.test_cases.size());
  EXPECT_EQ(resumed.merged.corpus_fingerprint, straight.merged.corpus_fingerprint);
  EXPECT_EQ(resumed.merged.coverage_fingerprint, straight.merged.coverage_fingerprint);
  EXPECT_EQ(resumed.corpus_signatures, straight.corpus_signatures);

  std::remove(ckpt_path.c_str());
}

// Interrupted at a round barrier and resumed, a driver campaign ends where
// the uninterrupted one does — one lane (the -j1 campaign) or several.
TEST(CheckpointTest, ParallelResumeIsBitIdentical) {
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(workers);
    CheckInterruptedResume(workers);
  }
}

// A barrier that is both a periodic checkpoint and the interrupt's writes
// its state once: one `checkpoint` event, one file, taken at round 1 —
// threaded and isolated alike.
TEST(CheckpointTest, InterruptAtPeriodicBarrierWritesOnce) {
  const std::string ckpt_path = "checkpoint_test_once.ckpt";
  auto cm = Compile(bench_models::BuildAfc());
  std::atomic<bool> stop{true};
  FuzzerOptions options;
  options.seed = 7;
  options.interrupt = &stop;
  options.checkpoint_path = ckpt_path;
  options.checkpoint_every = 1;  // every barrier crosses a periodic boundary
  for (const bool isolated : {false, true}) {
    SCOPED_TRACE(isolated ? "isolated" : "threaded");
    std::remove(ckpt_path.c_str());
    std::string trace;
    obs::TraceWriter writer(&trace);
    obs::CampaignTelemetry telemetry{nullptr, &writer};
    options.telemetry = &telemetry;
    ParallelCampaignResult r;
    if (isolated) {
      SupervisorOptions sup;
      sup.num_workers = 3;
      sup.sync_every = 256;
      r = Supervisor(cm->instrumented(), cm->spec(), options, sup).Run(ExecBudget(6000));
    } else {
      ParallelOptions parallel;
      parallel.num_workers = 3;
      parallel.sync_every = 256;
      r = ParallelFuzzer(cm->instrumented(), cm->spec(), options, parallel).Run(ExecBudget(6000));
    }
    EXPECT_TRUE(r.interrupted);
    std::size_t checkpoints = 0;
    for (std::size_t pos = trace.find("\"ev\":\"checkpoint\""); pos != std::string::npos;
         pos = trace.find("\"ev\":\"checkpoint\"", pos + 1)) {
      ++checkpoints;
    }
    EXPECT_EQ(checkpoints, 1U);
    auto ckpt = ReadCheckpointFile(ckpt_path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.message();
    EXPECT_EQ(ckpt.value().rounds, 1U);
  }
  std::remove(ckpt_path.c_str());
}

// -- Profile counters across checkpoint/resume -----------------------------

// The self-profiler planes are campaign state: a resumed campaign's VM
// dispatch counters, strobe samples, and phase laps must continue from the
// checkpointed values, and (with a fixed strobe schedule) end bit-identical
// to an uninterrupted campaign's.
TEST(CheckpointTest, ProfileCountersSurviveResume) {
  const std::uint64_t kStop = 1200;
  const std::uint64_t kTotal = 3000;
  FuzzerOptions options;
  options.seed = 11;
  options.profile_timing = true;  // arm the strobe plane too

  auto baseline_cm = Compile(bench_models::BuildAfc());
  Fuzzer baseline(baseline_cm->instrumented(), baseline_cm->spec(), options);
  const CampaignResult straight = baseline.Run(ExecBudget(kTotal));
  ASSERT_GT(straight.exec_profile.TotalDispatches(), 0u);
  ASSERT_GT(straight.exec_profile.steps, 0u);

  auto cm1 = Compile(bench_models::BuildAfc());
  Fuzzer first(cm1->instrumented(), cm1->spec(), options);
  first.Begin(ExecBudget(kTotal));
  ASSERT_EQ(first.RunChunk(kStop), kStop);
  const CampaignCheckpoint taken = first.MakeCheckpoint();
  const std::string bytes = SerializeCheckpoint(taken);
  const CampaignResult partial = first.Finish();
  ASSERT_GT(partial.exec_profile.steps, 0u);
  ASSERT_LT(partial.exec_profile.steps, straight.exec_profile.steps);

  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  // The checkpoint carries the partial counters verbatim.
  EXPECT_EQ(parsed.value().workers[0].exec_profile.insn_counts,
            taken.workers[0].exec_profile.insn_counts);

  auto cm2 = Compile(bench_models::BuildAfc());
  FuzzerOptions resume_options = options;
  resume_options.resume = &parsed.value().workers[0];
  Fuzzer second(cm2->instrumented(), cm2->spec(), resume_options);
  const CampaignResult resumed = second.Run(ExecBudget(kTotal));

  // VM plane: dispatch counts, strobe samples, and the step counter all
  // continue from the checkpoint — bit-identical to the straight run.
  EXPECT_EQ(resumed.exec_profile.steps, straight.exec_profile.steps);
  EXPECT_EQ(resumed.exec_profile.insn_counts, straight.exec_profile.insn_counts);
  EXPECT_EQ(resumed.exec_profile.insn_samples, straight.exec_profile.insn_samples);
  // Phase plane: lap counts are schedule-determined (times are wall-clock
  // and naturally differ), and the resumed run keeps accumulating them.
  const auto total_laps = [](const obs::PhaseProfile& p) {
    std::uint64_t n = 0;
    for (const std::uint64_t laps : p.laps) n += laps;
    return n;
  };
  EXPECT_GT(total_laps(resumed.phase_profile), 0u);
  EXPECT_GT(total_laps(resumed.phase_profile), total_laps(partial.phase_profile));
}

// -- Version and identity gating ------------------------------------------

TEST(CheckpointTest, VersionMismatchRejectedBothDirections) {
  auto cm = Compile(bench_models::BuildAfc());
  FuzzerOptions options;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzzer.Begin(ExecBudget(200));
  fuzzer.RunChunk(200);
  const std::string bytes = SerializeCheckpoint(fuzzer.MakeCheckpoint());
  (void)fuzzer.Finish();
  ASSERT_TRUE(ParseCheckpoint(bytes).ok());

  // The version word sits right after the 8-byte magic. Version 3 is the
  // current format (margin distances appended); 2 and 4 bracket it.
  for (std::uint8_t bad_version : {std::uint8_t{2}, std::uint8_t{4}}) {
    std::string patched = bytes;
    patched[8] = static_cast<char>(bad_version);
    auto parsed = ParseCheckpoint(patched);
    ASSERT_FALSE(parsed.ok()) << "version " << int(bad_version) << " accepted";
    EXPECT_NE(parsed.message().find("version"), std::string::npos) << parsed.message();
  }
}

TEST(CheckpointTest, TruncationAndTrailingBytesRejected) {
  auto cm = Compile(bench_models::BuildAfc());
  FuzzerOptions options;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzzer.Begin(ExecBudget(200));
  fuzzer.RunChunk(200);
  const std::string bytes = SerializeCheckpoint(fuzzer.MakeCheckpoint());
  (void)fuzzer.Finish();

  EXPECT_FALSE(ParseCheckpoint(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(ParseCheckpoint(bytes.substr(0, 4)).ok());
  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint(bytes + "x").ok());
  EXPECT_FALSE(ParseCheckpoint("not a checkpoint at all").ok());
}

TEST(CheckpointTest, ValidateRejectsForeignCampaigns) {
  auto cm = Compile(bench_models::BuildAfc());
  FuzzerOptions options;
  options.seed = 5;
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzzer.Begin(ExecBudget(200));
  fuzzer.RunChunk(200);
  const CampaignCheckpoint ckpt = fuzzer.MakeCheckpoint();
  const std::uint64_t fp = fuzzer.spec_fingerprint();
  (void)fuzzer.Finish();

  EXPECT_TRUE(ValidateCheckpoint(ckpt, options, 1, fp).ok());

  auto wrong_model = ValidateCheckpoint(ckpt, options, 1, fp ^ 1);
  ASSERT_FALSE(wrong_model.ok());
  EXPECT_NE(wrong_model.message().find("different model"), std::string::npos);

  auto wrong_workers = ValidateCheckpoint(ckpt, options, 4, fp);
  ASSERT_FALSE(wrong_workers.ok());
  EXPECT_NE(wrong_workers.message().find("worker"), std::string::npos);

  // A one-worker checkpoint may omit its round size (sync_every 0, as above);
  // several workers may not, since their schedule depends on it.
  CampaignCheckpoint two = ckpt;
  two.num_workers = 2;
  two.workers.push_back(two.workers[0]);
  two.scanned.push_back(0);
  auto no_rounds = ValidateCheckpoint(two, options, 2, fp);
  ASSERT_FALSE(no_rounds.ok());
  EXPECT_NE(no_rounds.message().find("sync_every"), std::string::npos) << no_rounds.message();
  two.sync_every = 64;
  EXPECT_TRUE(ValidateCheckpoint(two, options, 2, fp).ok());

  FuzzerOptions other_seed = options;
  other_seed.seed = 6;
  EXPECT_FALSE(ValidateCheckpoint(ckpt, other_seed, 1, fp).ok());
}

// The spec fingerprint does not cover program length, so a checkpoint from a
// build that lowers the model to a different instruction count names the
// same model. Its profile planes must be refused, not resumed with counters
// attributed to the wrong instructions.
TEST(CheckpointTest, ResumeRefusesProfilePlaneOfAnotherLowering) {
  auto cm = Compile(bench_models::BuildAfc());
  FuzzerOptions options;
  options.profile_timing = true;  // both VM planes populated
  Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzzer.Begin(ExecBudget(200));
  fuzzer.RunChunk(200);
  const CampaignCheckpoint ckpt = fuzzer.MakeCheckpoint();
  (void)fuzzer.Finish();
  const std::size_t len = cm->instrumented().code.size();
  const std::size_t fo_len = cm->fuzz_only().code.size();
  ASSERT_EQ(ckpt.workers[0].exec_profile.insn_counts.size(), len);
  ASSERT_EQ(ckpt.workers[0].exec_profile.insn_samples.size(), len);
  EXPECT_TRUE(cm->ValidateResumeProfile(ckpt).ok());

  {  // One entry too long: a program one instruction longer wrote it.
    CampaignCheckpoint c = ckpt;
    c.workers[0].exec_profile.insn_counts.push_back(0);
    const Status s = cm->ValidateResumeProfile(c);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("profile plane"), std::string::npos) << s.message();
  }
  {
    CampaignCheckpoint c = ckpt;
    c.workers[0].exec_profile.insn_samples.push_back(0);
    EXPECT_FALSE(cm->ValidateResumeProfile(c).ok());
  }
  {
    CampaignCheckpoint c = ckpt;
    c.workers[0].fuzz_exec_profile.insn_counts.assign(fo_len + 1, 0);
    EXPECT_FALSE(cm->ValidateResumeProfile(c).ok());
  }
  {  // Empty planes (never attached) and exactly-sized ones are both fine.
    CampaignCheckpoint c = ckpt;
    c.workers[0].exec_profile.insn_counts.clear();
    c.workers[0].exec_profile.insn_samples.clear();
    c.workers[0].fuzz_exec_profile.insn_counts.assign(fo_len, 0);
    EXPECT_TRUE(cm->ValidateResumeProfile(c).ok());
  }
}

// -- Hang containment ------------------------------------------------------

// A one-instruction program that jumps to itself: every input hangs.
vm::Program RunawayProgram() {
  vm::Program p;
  p.input_types = {ir::DType::kInt8};
  vm::Insn jmp;
  jmp.op = vm::Op::kJmp;
  jmp.imm = 0;
  p.code = {jmp};
  return p;
}

TEST(HangContainmentTest, MachineAbortsOnBackEdgeBudget) {
  const vm::Program p = RunawayProgram();
  vm::Machine m(p);
  m.set_step_budget(100);
  std::uint8_t input = 0;
  m.SetInputsFromBytes(&input);
  EXPECT_FALSE(m.Step(nullptr)) << "runaway iteration must be aborted, not complete";
}

TEST(HangContainmentTest, FuzzerQuarantinesHangingInputs) {
  const std::string hangs_dir = "checkpoint_test_hangs";
  fs::remove_all(hangs_dir);

  const vm::Program p = RunawayProgram();
  coverage::CoverageSpec spec;
  FuzzerOptions options;
  options.seed = 3;
  options.step_budget = 64;
  options.hangs_dir = hangs_dir;
  Fuzzer fuzzer(p, spec, options);
  const CampaignResult result = fuzzer.Run(ExecBudget(50));

  // Every seed wedges the model: all are quarantined, none admitted, the
  // campaign ends with an empty corpus instead of spinning forever.
  EXPECT_GT(result.hangs, 0u);
  EXPECT_TRUE(result.test_cases.empty());

  ASSERT_TRUE(fs::is_directory(hangs_dir));
  std::size_t artifacts = 0;
  for (const auto& entry : fs::directory_iterator(hangs_dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name.rfind("hang-", 0) == 0 && name.size() == 5 + 16 + 4 &&
                name.substr(name.size() - 4) == ".bin")
        << "unexpected artifact name: " << name;
    ++artifacts;
  }
  EXPECT_GT(artifacts, 0u);
  // Artifact names are content hashes: identical hanging inputs dedup, so
  // there can never be more files than quarantined inputs.
  EXPECT_LE(artifacts, static_cast<std::size_t>(result.hangs));

  // Re-running the identical campaign re-hits the same hangs; the artifact
  // set must not grow (content-hashed names dedup across runs).
  Fuzzer again(p, spec, options);
  (void)again.Run(ExecBudget(50));
  std::size_t artifacts_after = 0;
  for (const auto& entry : fs::directory_iterator(hangs_dir)) {
    (void)entry;
    ++artifacts_after;
  }
  EXPECT_EQ(artifacts_after, artifacts);

  fs::remove_all(hangs_dir);
}

TEST(HangContainmentTest, HangCountSurvivesCheckpointRoundTrip) {
  const vm::Program p = RunawayProgram();
  coverage::CoverageSpec spec;
  FuzzerOptions options;
  options.seed = 3;
  options.step_budget = 64;
  Fuzzer fuzzer(p, spec, options);
  fuzzer.Begin(ExecBudget(50));
  fuzzer.RunChunk(50);
  const std::string bytes = SerializeCheckpoint(fuzzer.MakeCheckpoint());
  const CampaignResult result = fuzzer.Finish();
  ASSERT_GT(result.hangs, 0u);

  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().workers[0].hangs, result.hangs);
}

}  // namespace
}  // namespace cftcg::fuzz
