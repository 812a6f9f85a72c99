// Crash-isolated supervised execution engine.
//
// The Supervisor runs the round-barrier campaign of parallel.hpp — the same
// driver, RunLaneCampaign (fuzz/lane.hpp) — over the forked-process lane
// transport: each worker lives in its own process instead of a thread, so a
// VM bug, a malformed model, or a hostile input can kill one lane without
// taking the campaign down. Worker state crosses the process boundary as
// checkpoint-format messages (fuzz/wire.hpp, the exact FuzzerState encoding
// of checkpoints) over a pair of pipes per lane:
//
//   parent → child:  RUN(target [, armed fault])   one round of executions
//                    SYNC(import list)             round-barrier corpus merge
//                    FINISH                        final state + report extras
//   child → parent:  HELLO(seed entries)           after Fuzzer::Begin
//                    ROUND(done, execs, new corpus entries since the cursor)
//                    STATE(full FuzzerState)       post-sync barrier state
//                    RESULT(state + fingerprint + provenance)
//
// Fault containment: the supervisor detects worker death (pipe EOF), kills
// lanes that miss their reply deadline (heartbeat timeout), quarantines the
// input that was executing at the time of death to a content-hashed
// crashes/ artifact (a shared-memory window the worker stamps before every
// execution, mirroring the hang quarantine), and respawns the lane from its
// last post-sync state with capped exponential backoff. A lane that keeps
// dying is retired and the campaign degrades gracefully to fewer workers.
//
// Live views: the same window carries the lane's execution count, which the
// supervisor relays to the status board while it waits on a round, and the
// driver publishes /profile from the lanes' barrier states — /status, the
// stall watchdog and /profile behave as they do for threads.
//
// Determinism: with no faults injected and no lane deaths, the supervised
// campaign is bit-identical to the threaded engine for the same seed and
// worker count — it is the same driver. A respawned lane replays its round
// from the last barrier state, so even a faulted campaign re-joins the
// deterministic schedule unless the crashing input is quarantined out of it.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/checkpoint.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/parallel.hpp"
#include "support/fault_inject.hpp"

namespace cftcg::fuzz {

/// The threaded engine's options plus the supervision policy. There is no
/// sequential delegation: -j1 --isolate still forks one worker.
struct SupervisorOptions : ParallelOptions {
  /// A lane that produces no reply for this long is presumed wedged,
  /// killed, and respawned. Also bounds the FINISH collection.
  double lane_timeout_s = 30.0;
  /// Consecutive respawns before a lane is retired. 0 retires on first
  /// death (no respawn).
  int max_restarts = 3;
  /// First respawn backoff; doubles per consecutive restart of the same
  /// lane, capped at restart_backoff_cap_s.
  double restart_backoff_s = 0.05;
  double restart_backoff_cap_s = 2.0;
  /// Where inputs in flight at worker death are quarantined (content-hashed
  /// `crash-<hash>.bin`, mirroring the hang quarantine). Empty: not saved.
  std::string crashes_dir;
  /// Deterministic fault schedule (tests, CI). Not owned; may be null.
  support::FaultInjector* faults = nullptr;
};

/// Lane-loss accounting of the supervised engine.
struct SupervisionStats {
  std::uint64_t crashes = 0;        // lanes that died (any cause, incl. injected)
  std::uint64_t hang_kills = 0;     // of which: reply-deadline kills
  std::uint64_t restarts = 0;       // successful respawns
  std::uint64_t lanes_retired = 0;  // lanes given up on
};

struct SupervisedCampaignResult : ParallelCampaignResult, SupervisionStats {};

class Supervisor {
 public:
  Supervisor(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
             FuzzerOptions options, SupervisorOptions supervise,
             const vm::Program* fuzz_only_program = nullptr);

  SupervisedCampaignResult Run(const FuzzBudget& budget);

 private:
  const vm::Program* instrumented_;
  const vm::Program* fuzz_only_;
  const coverage::CoverageSpec* spec_;
  FuzzerOptions options_;
  SupervisorOptions supervise_;
};

}  // namespace cftcg::fuzz
