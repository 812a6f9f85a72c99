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
// The driver calls, per lane:
//
//   Begin, AwaitRound             the seed round: seed (or restore) the corpus
//   { StartRound, AwaitRound,     one round — every lane starts before any is
//     NewEntries, Sync,           awaited — then the single-threaded barrier,
//     TakeEvents }*               which forwards the round's events
//   Finish                        the lane's final campaign result
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

  /// Opens the campaign; its seed entries arrive with the next AwaitRound.
  virtual void Begin() = 0;
  /// Starts advancing the campaign to `target` cumulative executions.
  virtual void StartRound(std::uint64_t target) = 0;
  /// Waits for the seed round or the round started last.
  virtual void AwaitRound() = 0;
  /// Entries at corpus index >= `from` that the lane reported at this
  /// barrier. The pointers are valid until the lane's next Sync.
  [[nodiscard]] virtual std::vector<const CorpusEntry*> NewEntries(std::size_t from) const = 0;
  /// Imports other lanes' entries (in export order) and closes the barrier.
  virtual void Sync(const std::vector<const CorpusEntry*>& imports) = 0;
  /// The lane's per-execution trace events (JSONL, want_events only) since
  /// the last take: the round's and the imports' of its Sync. A round the
  /// transport replayed replaces the lost attempt's events.
  virtual std::string TakeEvents() = 0;
  virtual CampaignResult Finish() = 0;

  // -- Barrier state: valid after AwaitRound / Sync, and after Finish. -----
  /// False once the transport gave up on the lane.
  [[nodiscard]] virtual bool live() const { return true; }
  [[nodiscard]] virtual bool done() const = 0;
  [[nodiscard]] virtual LaneCounters counters() const = 0;
  /// Wall seconds the last round took (-1: the round did not complete).
  [[nodiscard]] virtual double round_seconds() const = 0;
  virtual void MergeCoverageInto(coverage::CoverageSink& global) const = 0;
  [[nodiscard]] virtual const vm::ExecProfile& exec_profile() const = 0;
  [[nodiscard]] virtual const obs::PhaseProfile& phase_profile() const = 0;
  /// The lane's resumable state (barriers only, not after Finish).
  [[nodiscard]] virtual FuzzerState SaveState() const = 0;
  [[nodiscard]] virtual std::vector<std::uint64_t> CorpusSignatures() const = 0;
  /// First-hit attribution (after Finish; null unless want_provenance).
  [[nodiscard]] virtual const coverage::ProvenanceMap* provenance() const = 0;
  /// Best branch distance per decision outcome (after Finish; empty unless
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
