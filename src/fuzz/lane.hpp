// Lanes of the round-barrier campaign driver (parallel.hpp).
//
// A lane is one worker campaign — a Fuzzer execution loop with its own RNG
// stream — behind a transport. RunLaneCampaign owns everything the lanes
// share: seed forking, the budget split, the signature-deduplicated corpus
// sync, heartbeats, registry and board aggregates, the trace, checkpoints,
// interrupts, profile publication and the lane-id-order final merge. Every
// in-process campaign runs here: -j1 is a one-lane campaign. A transport
// only moves one lane's work, state and per-execution trace events:
//
//   * ThreadLane (parallel.cpp): the Fuzzer lives in this process and runs
//     each round on a thread of its own;
//   * ProcessLane (supervisor.cpp): the Fuzzer lives in a forked child,
//     commanded over checksummed wire frames, respawned after a crash.
//
// The driver runs every per-lane phase as start-on-all-lanes, then
// await-all: it starts the phase on every live lane before it awaits any
// of them, so no lane waits for the driver to reach it. Per lane:
//
//   Begin, Await                  the seed round: seed (or restore) the corpus
//   { StartRound, Await,          one round, then the single-threaded barrier
//     NewEntries, StartSync,      (export selection in lane-id order); each
//     Await, TakeEvents }*        lane finishes its imports before its next
//                                 round starts; events forwarded in id order
//   StartFinish, Await,           the lane's final campaign result
//     TakeResult
//
// Both transports see the same calls with the same arguments, so a
// fault-free campaign is bit-identical across them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/checkpoint.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"
#include "obs/clock.hpp"
#include "support/fault_inject.hpp"

namespace cftcg::fuzz {

/// Campaign wall clock shared by the driver and its lanes. It spans
/// interruptions: a resumed campaign starts at the checkpointed time.
class CampaignClock {
 public:
  explicit CampaignClock(double base_s) : base_s_(base_s) {}
  [[nodiscard]] double Now() const { return base_s_ + watch_.Elapsed(); }

 private:
  double base_s_;
  obs::Stopwatch watch_;
};

/// What a transport needs to open lane `index`.
struct LaneSpec {
  int index = 0;
  /// The campaign options with this lane's forked seed. Campaign-level
  /// features — telemetry, checkpoints, interrupt, margins, profile
  /// publication, provenance — are stripped: the driver owns them.
  FuzzerOptions options;
  FuzzBudget budget;                    // this lane's share of the budget
  const FuzzerState* resume = nullptr;  // checkpointed lane state, if resuming
  bool want_provenance = false;         // keep a first-hit map for the merge
  bool want_margins = false;            // record branch distances for the merge
  bool want_events = false;             // buffer per-execution trace events
  const CampaignClock* clock = nullptr;
};

/// Barrier counters of one lane, summed by the driver's heartbeat.
struct LaneCounters {
  std::uint64_t executions = 0;
  std::uint64_t model_iterations = 0;
  std::uint64_t measure_iterations = 0;
  std::uint64_t hangs = 0;
  std::uint64_t test_cases = 0;
  std::uint64_t corpus = 0;
  std::uint64_t corpus_energy = 0;  // Σ (metric + 1), Corpus::total_energy
  std::uint64_t max_metric = 0;
  StrategyStats strategy_stats;

  void MergeFrom(const LaneCounters& o) {
    executions += o.executions;
    model_iterations += o.model_iterations;
    measure_iterations += o.measure_iterations;
    hangs += o.hangs;
    test_cases += o.test_cases;
    corpus += o.corpus;
    corpus_energy += o.corpus_energy;
    max_metric = std::max(max_metric, o.max_metric);
    strategy_stats.MergeFrom(o.strategy_stats);
  }
};

class Lane {
 public:
  Lane() = default;
  virtual ~Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  // -- Phases: each Start* (and Begin) returns at once; Await waits for it.
  /// Starts opening the campaign; its seed entries arrive with the Await.
  virtual void Begin() = 0;
  /// Starts advancing the campaign to `target` cumulative executions.
  virtual void StartRound(std::uint64_t target) = 0;
  /// Starts importing other lanes' entries (in export order); the Await
  /// closes the barrier. The entries must stay valid until then.
  virtual void StartSync(const std::vector<const CorpusEntry*>& imports) = 0;
  /// Starts the lane's final campaign result (TakeResult, after the Await).
  virtual void StartFinish() = 0;
  /// Waits for the phase started last.
  virtual void Await() = 0;

  /// Entries at corpus index >= `from` that the lane reported at this
  /// barrier. The pointers are valid until the lane's next StartSync.
  [[nodiscard]] virtual std::vector<const CorpusEntry*> NewEntries(std::size_t from) const = 0;
  /// The lane's per-execution trace events (JSONL, want_events only) since
  /// the last take: the round's and the imports' of its sync. A round the
  /// transport replayed replaces the lost attempt's events.
  virtual std::string TakeEvents() = 0;
  /// The final campaign result of the finish phase.
  virtual CampaignResult TakeResult() = 0;

  // -- Barrier state: valid after each Await. ----------------------------
  /// False once the transport gave up on the lane.
  [[nodiscard]] virtual bool live() const { return true; }
  [[nodiscard]] virtual bool done() const = 0;
  [[nodiscard]] virtual LaneCounters counters() const = 0;
  /// Wall seconds the lane spent in its last round, timed where the round
  /// runs (-1: the round did not complete).
  [[nodiscard]] virtual double round_seconds() const = 0;
  virtual void MergeCoverageInto(coverage::CoverageSink& global) const = 0;
  [[nodiscard]] virtual const vm::ExecProfile& exec_profile() const = 0;
  [[nodiscard]] virtual const obs::PhaseProfile& phase_profile() const = 0;
  /// The lane's resumable state (barriers only, not after the finish).
  [[nodiscard]] virtual FuzzerState SaveState() const = 0;
  [[nodiscard]] virtual std::vector<std::uint64_t> CorpusSignatures() const = 0;
  /// First-hit attribution (after the finish; null unless want_provenance).
  [[nodiscard]] virtual const coverage::ProvenanceMap* provenance() const = 0;
  /// Best branch distance per decision outcome (after the finish; empty unless
  /// want_margins).
  [[nodiscard]] virtual std::vector<double> margins() const = 0;
};

/// The coverage signatures of `entries`, in corpus order.
inline std::vector<std::uint64_t> Signatures(const std::vector<CorpusEntry>& entries) {
  std::vector<std::uint64_t> out;
  out.reserve(entries.size());
  for (const CorpusEntry& e : entries) out.push_back(e.signature);
  return out;
}

using OpenLane = std::function<std::unique_ptr<Lane>(const LaneSpec&)>;

/// Runs one campaign over `parallel.num_workers` lanes opened by `open`.
/// Checkpoints are captured at barriers and written behind the next round:
/// checkpoint k is on disk before barrier k+1, and the interrupt's or the
/// last barrier's before the lanes finish.
/// `faults` arms driver-side faults (torn checkpoints); `supervision`, when
/// set, is the process transport's lane-loss accounting, reported in
/// heartbeats and the trace.
ParallelCampaignResult RunLaneCampaign(const vm::Program& instrumented,
                                       const coverage::CoverageSpec& spec,
                                       const FuzzerOptions& options,
                                       const ParallelOptions& parallel, const FuzzBudget& budget,
                                       const OpenLane& open,
                                       support::FaultInjector* faults = nullptr,
                                       const SupervisionStats* supervision = nullptr);

}  // namespace cftcg::fuzz
