// Robustness of the checkpoint reader against damaged input.
//
// A checkpoint on disk outlives the process that wrote it: a kill mid-write
// (mitigated but not eliminated by atomic rename on foreign filesystems),
// disk corruption, or a user pointing --resume at the wrong file must all
// produce a structured diagnostic — never a crash, never an over-allocation,
// never a mis-shaped state fed into the engine. Three layers of defense are
// exercised here:
//   1. ParseCheckpoint rejects every strict prefix of a real checkpoint and
//      survives thousands of seeded single-byte corruptions, in the current
//      format and in the older one it still reads (the committed v3
//      tests/data/afc_sequential_v3.ckpt);
//   2. ValidateCheckpointShape refuses parse-surviving states whose tables
//      do not match the coverage universe;
//   3. the committed tests/data/bad_checkpoints corpus (regression inputs
//      for the CLI's exit-code-4 path) parses to errors, not crashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "fuzz/checkpoint.hpp"
#include "support/rng.hpp"

namespace cftcg::fuzz {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<CompiledModel> Compile() {
  auto model = bench_models::Build("AFC").take();
  auto cm = CompiledModel::FromModel(std::move(model));
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

// A real (small) checkpoint: a short sequential campaign captured mid-run,
// exactly as the SIGINT path does.
std::string RealCheckpointBytes(CompiledModel& cm) {
  FuzzerOptions options;
  options.seed = 11;
  coverage::MarginRecorder margins;  // the v3 distance table rides along
  options.margins = &margins;
  Fuzzer fuzzer(cm.instrumented(), cm.spec(), options);
  FuzzBudget budget;
  budget.wall_seconds = 300.0;
  budget.max_executions = 300;
  fuzzer.Begin(budget);
  EXPECT_EQ(fuzzer.RunChunk(300), 300U);
  const std::string bytes = SerializeCheckpoint(fuzzer.MakeCheckpoint());
  (void)fuzzer.Finish();
  return bytes;
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {(std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()};
}

/// The committed one-worker AFC checkpoint in the version-3 format.
std::string V3CheckpointBytes() {
  return ReadBytes(fs::path(CFTCG_SOURCE_DIR) / "tests" / "data" / "afc_sequential_v3.ckpt");
}

/// Every checkpoint the damage sweeps run over, by name: a fresh one in the
/// current format and the committed version-3 one.
std::vector<std::pair<std::string, std::string>> SweptCheckpoints(CompiledModel& cm) {
  return {{"current", RealCheckpointBytes(cm)}, {"v3", V3CheckpointBytes()}};
}

TEST(CheckpointFuzzTest, RoundTripIsExactAndShapeValid) {
  auto cm = Compile();
  const std::string bytes = RealCheckpointBytes(*cm);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(SerializeCheckpoint(parsed.value()), bytes);
  const coverage::CoverageSink probe(cm->spec());
  const auto num_outcomes = static_cast<std::size_t>(cm->spec().num_outcome_slots());
  EXPECT_EQ(parsed.value().workers[0].margins.size(), num_outcomes);
  EXPECT_TRUE(ValidateCheckpointShape(parsed.value(), probe.total().size(),
                                      probe.evals().size(), num_outcomes)
                  .ok());
}

// A version-3 checkpoint reads: its discarded fields aside, it holds what
// the same state written in the current format holds, and rewriting it
// drops exactly those fields (per worker, two profile planes of one sample
// vector and one countdown each).
TEST(CheckpointFuzzTest, V3CheckpointReadsAndRewritesInTheCurrentFormat) {
  const std::string v3 = V3CheckpointBytes();
  auto parsed = ParseCheckpoint(v3);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().version, 3U);
  ASSERT_EQ(parsed.value().workers.size(), 1U);
  const FuzzerState& w = parsed.value().workers[0];
  EXPECT_EQ(w.executions, 8000U);
  EXPECT_GT(w.exec_profile.TotalDispatches(), 0U);
  EXPECT_EQ(w.exec_profile.steps, w.model_iterations + w.measure_iterations);

  CampaignCheckpoint current = parsed.value();
  current.version = kCheckpointVersion;
  const std::string rewritten = SerializeCheckpoint(current);
  auto reparsed = ParseCheckpoint(rewritten);
  ASSERT_TRUE(reparsed.ok()) << reparsed.message();
  EXPECT_EQ(SerializeCheckpoint(reparsed.value()), rewritten);
  const std::size_t dropped = [&] {
    std::size_t n = 0;
    for (const vm::ExecProfile* p : {&w.exec_profile, &w.fuzz_exec_profile}) {
      n += 8 + 8 * p->insn_counts.size() + 8;  // samples (count + one per counter), countdown
    }
    return n;
  }();
  EXPECT_EQ(v3.size(), rewritten.size() + dropped);
}

TEST(CheckpointFuzzTest, EveryTruncationFailsWithStructuredError) {
  auto cm = Compile();
  for (const auto& [name, bytes] : SweptCheckpoints(*cm)) {
    SCOPED_TRACE(name);
    ASSERT_GT(bytes.size(), 64U);
    // The parser demands exact consumption, so every strict prefix must
    // parse to an error (with a message), never crash, never succeed.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      auto parsed = ParseCheckpoint(std::string_view(bytes.data(), len));
      ASSERT_FALSE(parsed.ok()) << "prefix of " << len << " byte(s) parsed as a full checkpoint";
      ASSERT_FALSE(parsed.message().empty());
    }
  }
}

TEST(CheckpointFuzzTest, SeededByteFlipsNeverCrashTheReader) {
  auto cm = Compile();
  const coverage::CoverageSink probe(cm->spec());
  for (const auto& [name, bytes] : SweptCheckpoints(*cm)) {
    SCOPED_TRACE(name);
    Rng rng(0xC0FFEEULL);
    int parsed_ok = 0;
    for (int i = 0; i < 2000; ++i) {
      std::string damaged = bytes;
      const std::size_t pos = static_cast<std::size_t>(rng.NextBelow(damaged.size()));
      const std::uint8_t bit = static_cast<std::uint8_t>(1U << rng.NextBelow(8));
      damaged[pos] = static_cast<char>(static_cast<std::uint8_t>(damaged[pos]) ^ bit);
      auto parsed = ParseCheckpoint(damaged);
      if (!parsed.ok()) {
        ASSERT_FALSE(parsed.message().empty());
        continue;
      }
      // A flip in payload bytes (corpus data, counters) can survive
      // parsing; the shape gate must still run without crashing and
      // anything it passes must be structurally safe to restore.
      ++parsed_ok;
      const Status shape =
          ValidateCheckpointShape(parsed.value(), probe.total().size(), probe.evals().size(),
                                  static_cast<std::size_t>(cm->spec().num_outcome_slots()));
      if (shape.ok()) {
        EXPECT_EQ(parsed.value().workers.size(), 1U);
      }
    }
    // Sanity: the sweep exercised both arms (most flips land in payload
    // bytes of a real checkpoint, so some must survive parsing).
    EXPECT_GT(parsed_ok, 0);
  }
}

TEST(CheckpointFuzzTest, ShapeValidationRejectsMismatchedTables) {
  auto cm = Compile();
  const std::string bytes = RealCheckpointBytes(*cm);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const coverage::CoverageSink probe(cm->spec());
  const std::uint64_t total_bits = probe.total().size();
  const std::size_t num_decisions = probe.evals().size();
  const auto num_outcomes = static_cast<std::size_t>(cm->spec().num_outcome_slots());

  {
    CampaignCheckpoint c = parsed.value();
    c.workers[0].total_bits += 1;
    EXPECT_FALSE(ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes).ok());
  }
  {
    CampaignCheckpoint c = parsed.value();
    c.workers[0].total_words.push_back(0);
    EXPECT_FALSE(ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes).ok());
  }
  {
    CampaignCheckpoint c = parsed.value();
    c.workers[0].evals.emplace_back();
    EXPECT_FALSE(ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes).ok());
  }
  {
    CampaignCheckpoint c = parsed.value();
    if (c.workers[0].seen_eval_sizes.empty()) c.workers[0].seen_eval_sizes.assign(1, 0);
    c.workers[0].seen_eval_sizes.push_back(0);
    EXPECT_FALSE(ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes).ok());
  }
  {  // One distance per decision outcome, or none at all.
    CampaignCheckpoint c = parsed.value();
    c.workers[0].margins.push_back(0);
    const Status s = ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("margin table"), std::string::npos) << s.message();
    c.workers[0].margins.resize(num_outcomes - 1);
    EXPECT_FALSE(ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes).ok());
    c.workers[0].margins.clear();
    EXPECT_TRUE(ValidateCheckpointShape(c, total_bits, num_decisions, num_outcomes).ok());
  }
}

TEST(CheckpointFuzzTest, BadCheckpointCorpusParsesToErrorsNotCrashes) {
  // Each file fails on its own defect: a fixture the version check (or any
  // other earlier gate) rejects would pass without testing anything.
  const std::map<std::string, std::string> defect = {
      {"empty.ckpt", "bad magic"},
      {"bad_magic.ckpt", "bad magic"},
      {"bad_version.ckpt", "version 99 is not supported (this build reads versions 3 and 4)"},
      {"truncated_header.ckpt", "header truncated at byte 20"},
      {"huge_vector_count.ckpt", "declares more entries than the file holds"},
      {"zero_workers.ckpt", "inconsistent worker count"},
  };
  const fs::path dir = fs::path(CFTCG_SOURCE_DIR) / "tests" / "data" / "bad_checkpoints";
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing";
  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".ckpt") continue;
    ++files;
    auto parsed = ParseCheckpoint(ReadBytes(entry.path()));
    EXPECT_FALSE(parsed.ok()) << entry.path() << " parsed as a valid checkpoint";
    const auto want = defect.find(entry.path().filename().string());
    ASSERT_NE(want, defect.end()) << entry.path() << " has no expected diagnostic";
    EXPECT_NE(parsed.message().find(want->second), std::string::npos)
        << entry.path() << ": " << parsed.message();
    // The file-level reader names the offending path in its diagnostic —
    // the same string the CLI prints before exiting with code 4.
    auto from_file = ReadCheckpointFile(entry.path().string());
    EXPECT_FALSE(from_file.ok());
    EXPECT_NE(from_file.message().find(entry.path().filename().string()), std::string::npos)
        << from_file.message();
  }
  EXPECT_EQ(files, static_cast<int>(defect.size())) << "bad_checkpoints corpus is incomplete";
}

}  // namespace
}  // namespace cftcg::fuzz
