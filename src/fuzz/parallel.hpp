// The campaign driver: one deterministic round driver, two lane transports.
//
// N lanes each run a Fuzzer execution loop (own vm::Machine, own
// CoverageSink, own corpus view, own Rng stream forked from the campaign
// seed) in round-based lockstep against shared campaign state:
//
//   round:   every live lane advances its loop by `sync_every` executions,
//            all lanes at once (lanes share only the read-only Programs);
//   barrier: the driver — single-threaded, in lane-id order — performs the
//            merge:
//              * corpus sync: entries admitted by one lane this round are
//                imported into every other lane, deduplicated by coverage
//                signature (first lane in id order wins a signature); the
//                lanes replay their imports at once;
//              * frontier merge: lane coverage folds into a global
//                CoverageSink (CoverageSink::MergeFrom) for aggregated
//                heartbeats and the final union report;
//              * telemetry and durability: the lanes' per-execution trace
//                events, forwarded in lane-id order; one aggregated `stat`
//                heartbeat with registry and board updates when due; the
//                merged /profile snapshot; the periodic checkpoint's
//                capture (it is written behind the next round); the
//                interrupt check.
//
// The driver (RunLaneCampaign, fuzz/lane.hpp) is shared by both engines;
// only the lane transport differs. ParallelFuzzer runs each lane on a
// thread of its own; Supervisor (fuzz/supervisor.hpp) runs each in a
// forked, crash-isolated process.
//
// Rounds are bounded by *execution counts*, never wall time, and imports
// draw nothing from lane RNG streams, so for a fixed (seed, num_workers)
// the whole campaign is deterministic regardless of scheduling or
// transport — same coverage report, same corpus signature set, same merged
// first-hit attribution (ties broken by lane id), same forwarded events.
// Wall-clock budgets still work (each lane checks its own clock) but trade
// that determinism away.
//
// Every campaign runs here; -j1 is one lane. It runs with the campaign seed
// itself and never imports, so its schedule is Fuzzer::Run's for the same
// options, whatever the round size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fuzz/fuzzer.hpp"

namespace cftcg::fuzz {

struct ParallelOptions {
  /// Worker count; clamped to >= 1.
  int num_workers = 1;
  /// Executions each worker runs between corpus-sync barriers. Larger
  /// values amortize the (single-threaded) merge; smaller values spread
  /// discoveries faster. The round structure is part of the deterministic
  /// schedule: changing it changes which mutations see imported entries.
  std::uint64_t sync_every = 1024;
  /// Resume from a multi-worker checkpoint (checkpoint.hpp). Must carry
  /// exactly num_workers worker states and the same sync_every — the caller
  /// validates with ValidateCheckpoint() first. Not owned; must outlive
  /// Run(). The driver restores its own barrier state (signature dedup set,
  /// corpus-scan cursors, round/import counters) and hands each worker its
  /// FuzzerState; checkpoints are taken at round barriers only, so the
  /// resumed schedule is bit-identical to an uninterrupted campaign.
  const CampaignCheckpoint* resume = nullptr;
};

struct ParallelCampaignResult {
  /// Union of the workers' campaigns: summed executions / iterations,
  /// test cases concatenated in worker-id order, merged strategy stats,
  /// coverage report computed over the merged frontier.
  CampaignResult merged;
  /// Sorted, deduplicated coverage signatures of every admitted corpus
  /// entry across all workers — the determinism suite's corpus fingerprint.
  std::vector<std::uint64_t> corpus_signatures;
  std::vector<std::uint64_t> worker_executions;
  std::uint64_t rounds = 0;
  /// Cross-worker corpus imports performed (0 when num_workers == 1).
  std::uint64_t imports = 0;
  /// The merged coverage frontier and MCDC evaluation sets.
  std::optional<coverage::CoverageSink> coverage;
  /// True when Run() returned because options.interrupt fired at a round
  /// barrier (a checkpoint was written if checkpoint_path is set; `merged`
  /// still carries the partial report).
  bool interrupted = false;
  /// Checkpoint writes that failed (a simulated torn write is not one), and
  /// whether the last write attempted was one of them, which leaves the
  /// campaign's final state unsaved.
  std::uint64_t checkpoint_write_failures = 0;
  bool last_checkpoint_write_failed = false;
};

class ParallelFuzzer {
 public:
  /// Same contract as Fuzzer: `instrumented` is the measurement/CFTCG
  /// target, `fuzz_only_program` is required when options.model_oriented is
  /// false. The driver owns the campaign-level options (telemetry,
  /// checkpoints, interrupt, profile publication); options.provenance and
  /// options.margins, when set, receive the merged first-hit attribution
  /// and branch distances after the run.
  ParallelFuzzer(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
                 FuzzerOptions options, ParallelOptions parallel,
                 const vm::Program* fuzz_only_program = nullptr);

  ParallelCampaignResult Run(const FuzzBudget& budget);

 private:
  const vm::Program* instrumented_;
  const vm::Program* fuzz_only_;
  const coverage::CoverageSpec* spec_;
  FuzzerOptions options_;
  ParallelOptions parallel_;
};

}  // namespace cftcg::fuzz
