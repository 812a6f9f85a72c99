#include "fuzz/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "coverage/report.hpp"
#include "fuzz/lane.hpp"
#include "obs/monitor.hpp"
#include "obs/timer.hpp"
#include "support/atomic_file.hpp"
#include "support/rng.hpp"

namespace cftcg::fuzz {

namespace {

obs::TraceEvent ObjectiveEvent(const coverage::ObjectiveFirstHit& hit) {
  obs::TraceEvent ev("objective");
  ev.Str("kind", coverage::ObjectiveKindName(hit.kind))
      .Str("name", hit.name)
      .I64("outcome", hit.outcome)
      .I64("slot", hit.slot)
      .U64("iter", hit.iteration)
      .F64("time_s", hit.time_s)
      .I64("entry", hit.entry_id)
      .Str("chain", hit.chain);
  return ev;
}

// Closes a campaign's attribution: a `residual` event per decision outcome
// `total` leaves uncovered (best distance from `margins`, which may be
// null, and its justification), the `provenance` summary, and the
// objective gauges.
void EmitResiduals(const obs::CampaignTelemetry& telemetry, const coverage::CoverageSpec& spec,
                   const DynamicBitset& total, const coverage::ProvenanceMap& provenance,
                   const coverage::MarginRecorder* margins,
                   const coverage::JustificationSet* justifications) {
  const auto residuals = coverage::ResidualDiagnostics(spec, total, margins, justifications);
  if (telemetry.trace != nullptr) {
    for (const auto& r : residuals) {
      obs::TraceEvent ev("residual");
      ev.Str("name", r.name).I64("decision", r.decision).I64("outcome", r.outcome);
      if (r.distance < coverage::MarginRecorder::kUnreached) {
        ev.F64("distance", r.distance);
      } else {
        ev.Str("distance", "unreached");
      }
      if (r.justified) {
        ev.U64("justified", 1).Str("reason", r.justify_reason);
      }
      telemetry.trace->Emit(ev);
    }
    telemetry.trace->Emit(obs::TraceEvent("provenance")
                              .U64("covered", provenance.num_covered())
                              .U64("total", provenance.num_objectives())
                              .U64("residual", residuals.size()));
  }
  if (telemetry.registry != nullptr) {
    telemetry.registry->GetGauge("fuzz.objectives_covered")
        .Set(static_cast<double>(provenance.num_covered()));
    telemetry.registry->GetGauge("fuzz.objectives_total")
        .Set(static_cast<double>(provenance.num_objectives()));
    telemetry.registry->GetGauge("fuzz.objectives_residual")
        .Set(static_cast<double>(residuals.size()));
  }
}

// In-process transport: the lane's Fuzzer runs each phase — seeding, a
// round, its imports, the finish — on a thread of its own. Lanes share only
// the read-only Programs, and Await joins the thread before the driver
// reads anything, so the barrier needs no locking.
class ThreadLane final : public Lane {
 public:
  ThreadLane(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
             const vm::Program* fuzz_only, const LaneSpec& lane)
      : budget_(lane.budget) {
    FuzzerOptions options = lane.options;
    if (lane.want_provenance) {
      provenance_ = std::make_unique<coverage::ProvenanceMap>(spec);
      options.provenance = provenance_.get();
    }
    if (lane.want_margins) options.margins = &margins_;
    if (lane.want_events) options.telemetry = &events_telemetry_;
    options.resume = lane.resume;
    fuzzer_ = std::make_unique<Fuzzer>(instrumented, spec, options, fuzz_only);
  }
  ~ThreadLane() override { Await(); }

  void Begin() override {
    thread_ = std::thread([this] { fuzzer_->Begin(budget_); });
  }
  void StartRound(std::uint64_t target) override {
    round_s_ = -1;
    thread_ = std::thread([this, target] {
      const obs::Stopwatch watch;
      fuzzer_->RunChunk(target);
      round_s_ = watch.Elapsed();
    });
  }
  void StartSync(const std::vector<const CorpusEntry*>& imports) override {
    if (imports.empty()) return;
    thread_ = std::thread([this, imports] {
      for (const CorpusEntry* e : imports) fuzzer_->ImportEntry(e->data, e->signature);
    });
  }
  void StartFinish() override {
    thread_ = std::thread([this] { result_ = fuzzer_->Finish(); });
  }
  void Await() override {
    if (thread_.joinable()) thread_.join();
  }
  std::vector<const CorpusEntry*> NewEntries(std::size_t from) const override {
    std::vector<const CorpusEntry*> out;
    const Corpus& corpus = fuzzer_->corpus();
    for (std::size_t k = from; k < corpus.size(); ++k) out.push_back(&corpus.entry(k));
    return out;
  }
  std::string TakeEvents() override { return std::exchange(events_, std::string()); }
  CampaignResult TakeResult() override { return std::move(result_); }

  bool done() const override { return fuzzer_->done(); }
  LaneCounters counters() const override {
    const Fuzzer& f = *fuzzer_;
    return LaneCounters{f.executions(),         f.model_iterations(),
                        f.measure_iterations(), f.hangs(),
                        f.test_cases(),         f.corpus().size(),
                        f.corpus().total_energy(), f.corpus().MaxMetric(),
                        f.strategy_stats()};
  }
  double round_seconds() const override { return round_s_; }
  void MergeCoverageInto(coverage::CoverageSink& global) const override {
    global.MergeFrom(fuzzer_->sink());
  }
  const vm::ExecProfile& exec_profile() const override { return fuzzer_->exec_profile(); }
  const obs::PhaseProfile& phase_profile() const override { return fuzzer_->phase_profile(); }
  FuzzerState SaveState() const override { return fuzzer_->SaveState(); }
  std::vector<std::uint64_t> CorpusSignatures() const override {
    return Signatures(fuzzer_->corpus().entries());
  }
  const coverage::ProvenanceMap* provenance() const override { return provenance_.get(); }
  std::vector<double> margins() const override { return margins_.distances(); }

 private:
  FuzzBudget budget_;
  std::unique_ptr<coverage::ProvenanceMap> provenance_;
  coverage::MarginRecorder margins_;  // stays empty unless want_margins
  std::string events_;                // per-execution events since the last take
  obs::TraceWriter events_trace_{&events_};
  obs::CampaignTelemetry events_telemetry_{nullptr, &events_trace_};
  std::unique_ptr<Fuzzer> fuzzer_;
  double round_s_ = -1;
  CampaignResult result_;
  std::thread thread_;  // last: joined before the members it uses go away
};

}  // namespace

ParallelCampaignResult RunLaneCampaign(const vm::Program& instrumented,
                                       const coverage::CoverageSpec& spec,
                                       const FuzzerOptions& options,
                                       const ParallelOptions& parallel, const FuzzBudget& budget,
                                       const OpenLane& open, support::FaultInjector* faults,
                                       const SupervisionStats* supervision) {
  const auto n = static_cast<std::size_t>(std::max(parallel.num_workers, 1));
  const std::uint64_t sync_every = std::max<std::uint64_t>(parallel.sync_every, 1);
  const CampaignCheckpoint* const resume = parallel.resume;
  assert(resume == nullptr || resume->workers.size() == n);  // ValidateCheckpoint's job
  obs::CampaignTelemetry* const tm = options.telemetry;
  obs::TraceWriter* const trace = tm != nullptr ? tm->trace : nullptr;
  obs::Registry* const registry = tm != nullptr ? tm->registry : nullptr;
  obs::CampaignStatusBoard* const board = options.status_board;
  obs::ProfilePublisher* const pub = options.profile_publisher;
  const char* const mode = options.model_oriented ? "cftcg" : "fuzz_only";
  const CampaignClock clock(resume != nullptr ? resume->elapsed_s : 0);
  const auto elapsed = [&clock] { return clock.Now(); };
  ParallelCampaignResult out;

  if (trace != nullptr) {
    obs::TraceEvent ev(resume != nullptr ? "resume" : "start");
    ev.Str("mode", mode).U64("seed", options.seed).U64("workers", n).U64("sync_every", sync_every);
    if (supervision != nullptr) ev.U64("isolated", 1);
    if (resume != nullptr) {
      std::uint64_t exec = 0;
      std::uint64_t corpus = 0;
      std::uint64_t test_cases = 0;
      for (const FuzzerState& w : resume->workers) {
        exec += w.executions;
        corpus += w.corpus.size();
        test_cases += w.test_cases.size();
      }
      ev.U64("rounds", resume->rounds)
          .U64("exec", exec)
          .U64("corpus", corpus)
          .U64("test_cases", test_cases)
          .F64("resumed_elapsed_s", resume->elapsed_s);
    } else {
      ev.U64("seed_inputs", options.seed_inputs)
          .U64("max_tuples", options.max_tuples)
          .U64("idc_energy", options.use_idc_energy ? 1 : 0)
          .F64("budget_s", budget.wall_seconds)
          .I64("fuzz_slots", spec.FuzzBranchCount())
          .I64("outcome_slots", spec.num_outcome_slots());
    }
    trace->Emit(ev);
  }

  // Lane RNG streams: lane 0 runs the campaign seed itself — so a one-lane
  // campaign is Fuzzer::Run's schedule — and lanes i > 0 draw forked seeds
  // from a master stream (Rng::Fork semantics: seed_i = master.NextU64()).
  // Execution quotas, not wall time, bound the deterministic schedule: an
  // even split of the campaign budget, with the remainder spread over the
  // first lanes.
  Rng master(options.seed);
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    LaneSpec lane;
    lane.index = static_cast<int>(i);
    lane.options = options;
    lane.options.seed = i == 0 ? options.seed : master.NextU64();
    lane.options.status_worker = static_cast<int>(i);
    // The driver owns telemetry (heartbeats, the trace, per-lane phase
    // spans), profile publication and first-hit attribution (merged at the
    // end). Durability too: a lane seeing the interrupt flag mid-round would
    // stop at an uneven execution count and wreck the round schedule, so
    // interrupts and checkpoints happen at barriers, where the whole
    // campaign is at a well-defined point. A lane buffers its per-execution
    // trace events for the driver to forward. Branch distances are recorded
    // per lane and merged at the end, like first hits. Hang quarantine stays
    // per lane (content-hashed names, atomic writes: no collisions).
    lane.options.telemetry = nullptr;
    lane.options.margins = nullptr;
    lane.options.interrupt = nullptr;
    lane.options.checkpoint_path.clear();
    lane.options.checkpoint_every = 0;
    lane.options.profile_publisher = nullptr;
    lane.options.provenance = nullptr;
    lane.want_provenance = options.provenance != nullptr;
    lane.want_margins = options.margins != nullptr;
    lane.want_events = trace != nullptr;
    // Corpus sync needs signatures; a single lane never imports, so it keeps
    // the caller's setting (default off = zero hot-path hashing).
    if (n > 1) lane.options.collect_signatures = true;
    lane.budget = budget;
    if (budget.max_executions != std::numeric_limits<std::uint64_t>::max()) {
      lane.budget.max_executions =
          budget.max_executions / n + (i < budget.max_executions % n ? 1 : 0);
    }
    if (resume != nullptr) lane.resume = &resume->workers[i];
    lane.clock = &clock;
    lanes.push_back(open(lane));
  }

  std::vector<obs::PhaseAccumulator> phase;
  phase.reserve(n);
  for (std::size_t i = 0; i < n; ++i) phase.emplace_back("fuzz.worker" + std::to_string(i));
  // Driver-side phase plane: corpus sync, checkpoint writes, and barrier
  // idle (a lane finishing its round early) are work the lanes' own lap
  // clocks never see. Round-granularity, so always on.
  obs::PhaseProfile driver_phases;
  // The campaign-wide profile: every lane's planes as of the last barrier
  // plus the driver plane, folded in lane-id order — one view for every
  // transport.
  const auto merged_profile = [&](double now) {
    vm::ExecProfile exec;
    obs::PhaseProfile phases = driver_phases;
    for (const auto& lane : lanes) {
      exec.MergeFrom(lane->exec_profile());
      phases.MergeFrom(lane->phase_profile());
    }
    obs::CampaignProfile p = obs::BuildCampaignProfile(instrumented, exec, phases);
    p.mode = mode;
    p.seed = options.seed;
    p.workers = static_cast<int>(n);
    p.elapsed_s = now;
    return p;
  };
  // In the --profile timed mode, a `profile` event (trace-summary reports
  // the first->last deltas) at every heartbeat and at the end.
  const auto trace_profile = [&](double now) {
    if (trace == nullptr || !options.profile_timing) return;
    const obs::CampaignProfile p = merged_profile(now);
    const auto phase_s = [&p](obs::ProfilePhase ph) {
      return p.phases[static_cast<std::size_t>(ph)].seconds;
    };
    obs::TraceEvent ev("profile");
    ev.F64("time_s", now)
        .U64("steps", p.vm_steps)
        .U64("dispatches", p.vm_dispatches)
        .F64("execute_s", phase_s(obs::ProfilePhase::kExecute))
        .F64("mutate_s", phase_s(obs::ProfilePhase::kMutate))
        .F64("coverage_s", phase_s(obs::ProfilePhase::kCoverageUpdate));
    if (!p.blocks.empty()) {
      ev.Str("hot_block", p.blocks[0].name).F64("hot_pct", p.blocks[0].dispatch_pct);
    }
    trace->Emit(ev);
  };
  double next_profile_pub = 0;  // rate-limits /profile snapshots to ~1/s

  // Barrier state, touched only by this thread between rounds.
  coverage::CoverageSink global(spec);
  std::unordered_set<std::uint64_t> seen_sigs;
  std::vector<std::size_t> scanned(n, 0);
  if (resume != nullptr) {
    // Barrier state from the checkpoint: the signature-dedup set and the
    // per-lane scan cursors are exactly where the checkpointed barrier left
    // them (cursors == corpus sizes, so the seed-round sync is a no-op), and
    // the round/import counters continue rather than restart.
    seen_sigs.insert(resume->seen_signatures.begin(), resume->seen_signatures.end());
    for (std::size_t i = 0; i < n && i < resume->scanned.size(); ++i) {
      scanned[i] = static_cast<std::size_t>(resume->scanned[i]);
    }
    out.rounds = resume->rounds;
    out.imports = resume->imports;
  }
  // Phases are lane-seconds: a wait the driver imposes at a barrier (corpus
  // sync, checkpoint capture, a commit that outlasts the round) is booked
  // once per live lane, as every one of them sits through it.
  const auto live_lanes = [&]() {
    double live = 0;
    for (const auto& lane : lanes) live += lane->live() ? 1 : 0;
    return live;
  };
  const auto sum_counters = [&]() {
    LaneCounters sum;
    for (const auto& lane : lanes) sum.MergeFrom(lane->counters());
    return sum;
  };

  // Checkpoints are written behind the next round. At a barrier the driver
  // captures the campaign (lane states plus its own barrier state) into
  // `pending`, the lanes' only wait; once the next round has started on
  // every lane, the idle driver thread encodes and writes it. So checkpoint
  // k is on disk before barrier k+1. An interrupt or the campaign end writes
  // synchronously.
  std::optional<CampaignCheckpoint> pending;
  std::uint64_t checkpoint_ordinal = 0;
  const auto capture_checkpoint = [&]() {
    const double t0 = elapsed();
    CampaignCheckpoint& ckpt =
        pending.emplace(CheckpointHeader(options, SpecFingerprint(spec, instrumented)));
    ckpt.num_workers = static_cast<std::uint32_t>(n);
    ckpt.sync_every = sync_every;
    ckpt.rounds = out.rounds;
    ckpt.imports = out.imports;
    ckpt.seen_signatures.assign(seen_sigs.begin(), seen_sigs.end());
    std::sort(ckpt.seen_signatures.begin(), ckpt.seen_signatures.end());
    ckpt.scanned.assign(scanned.begin(), scanned.end());
    ckpt.elapsed_s = elapsed();
    ckpt.workers.reserve(n);
    for (const auto& lane : lanes) ckpt.workers.push_back(lane->SaveState());
    driver_phases.Add(obs::ProfilePhase::kCheckpoint, (elapsed() - t0) * live_lanes());
  };
  // Encodes and writes the pending checkpoint, if any, touching no lane.
  // Returns how long that took.
  const auto commit_checkpoint = [&]() -> double {
    if (!pending) return 0;
    const double t0 = elapsed();
    std::string bytes = SerializeCheckpoint(*pending);
    std::uint64_t exec = 0;
    for (const FuzzerState& w : pending->workers) exec += w.executions;
    pending.reset();
    ++checkpoint_ordinal;
    Status status = Status::Ok();
    bool torn = false;
    if (faults != nullptr) {
      if (support::FaultEvent* ev =
              faults->NextDriverFault(support::FaultKind::kTornCheckpoint, checkpoint_ordinal)) {
        // Simulated power-cut mid-write: a truncated blob lands at the final
        // path without the temp+rename dance. The next read must reject it
        // with a structured diagnostic, never crash; the next periodic
        // checkpoint heals the file.
        ev->fired = true;
        torn = true;
        bytes.resize(bytes.size() / 3);
        if (std::FILE* f = std::fopen(options.checkpoint_path.c_str(), "wb"); f != nullptr) {
          std::fwrite(bytes.data(), 1, bytes.size(), f);
          std::fclose(f);
        }
        if (trace != nullptr) {
          trace->Emit(obs::TraceEvent("fault_injected")
                          .F64("time_s", elapsed())
                          .Str("kind", "torn")
                          .U64("at", checkpoint_ordinal));
        }
      }
    }
    if (!torn) {
      status = support::WriteFileAtomic(options.checkpoint_path, bytes);
      if (!status.ok()) {
        std::fprintf(stderr, "cftcg: checkpoint write failed: %s\n", status.message().c_str());
        ++out.checkpoint_write_failures;
      }
    }
    out.last_checkpoint_write_failed = !status.ok();
    const double commit_s = elapsed() - t0;
    if (trace != nullptr) {
      trace->Emit(obs::TraceEvent("checkpoint")
                      .F64("time_s", elapsed())
                      .U64("exec", exec)
                      .U64("bytes", bytes.size())
                      .U64("ok", status.ok() && !torn ? 1 : 0)
                      .F64("commit_s", commit_s));
    }
    if (registry != nullptr) registry->GetCounter("fuzz.checkpoints").Increment();
    return commit_s;
  };

  // The barrier merge, single-threaded in lane-id order. Pass 1 collects the
  // entries each reporting lane admitted since the last barrier whose
  // coverage signature is globally new (first lane in id order wins a
  // signature); pass 2 replays every export into every other live lane.
  // Imports draw nothing from lane RNG streams and their iterations are
  // booked as measurement, so the schedule stays deterministic and the
  // throughput numbers honest. Last, each lane's per-execution events of the
  // round and its imports are forwarded, in lane-id order.
  std::vector<char> reporting(n, 1);  // lanes with a report at this barrier
  const auto sync = [&]() {
    std::vector<CorpusEntry> exports;
    std::vector<std::size_t> origin;
    for (std::size_t i = 0; i < n; ++i) {
      if (!reporting[i] || !lanes[i]->live()) continue;
      for (const CorpusEntry* e : lanes[i]->NewEntries(scanned[i])) {
        if (!seen_sigs.insert(e->signature).second) continue;
        CorpusEntry& x = exports.emplace_back();
        x.data = e->data;
        x.signature = e->signature;
        origin.push_back(i);
      }
    }
    std::vector<std::vector<const CorpusEntry*>> imports(n);
    for (std::size_t k = 0; k < exports.size(); ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j == origin[k] || !lanes[j]->live() || lanes[j]->done()) continue;
        imports[j].push_back(&exports[k]);
        ++out.imports;
      }
    }
    // Every lane replays its imports at once. Imported entries carry
    // already-seen signatures; the cursors skip over them so the next scan
    // starts at fresh entries.
    std::vector<char> syncing(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      syncing[j] = reporting[j] && lanes[j]->live() ? 1 : 0;
      if (syncing[j]) lanes[j]->StartSync(imports[j]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!syncing[j]) continue;
      lanes[j]->Await();
      scanned[j] = lanes[j]->counters().corpus;
    }
    if (trace != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        trace->Forward(lanes[i]->TakeEvents(), i);
      }
    }
  };

  // Registry counters are monotonic and may be shared across campaigns (the
  // global registry in hybrid mode), so they sync by delta from `synced`.
  LaneCounters synced;
  const auto sync_registry = [&](const LaneCounters& c, const coverage::MetricReport& report,
                                 double exec_per_s, double iters_per_s) {
    if (registry == nullptr) return;
    obs::Registry& reg = *registry;
    const auto add = [&reg](const std::string& name, std::uint64_t now, std::uint64_t was) {
      reg.GetCounter(name).Add(now > was ? now - was : 0);
    };
    add("fuzz.executions", c.executions, synced.executions);
    add("fuzz.model_iterations", c.model_iterations, synced.model_iterations);
    add("fuzz.measure_iterations", c.measure_iterations, synced.measure_iterations);
    add("fuzz.new_coverage_inputs", c.test_cases, synced.test_cases);
    add("fuzz.hangs", c.hangs, synced.hangs);
    for (int s = 0; s < kNumMutationStrategies; ++s) {
      const auto name = std::string(MutationStrategyName(static_cast<MutationStrategy>(s)));
      const auto idx = static_cast<std::size_t>(s);
      add("fuzz.strategy." + name + ".applied", c.strategy_stats.applied[idx],
          synced.strategy_stats.applied[idx]);
      add("fuzz.strategy." + name + ".new", c.strategy_stats.credited[idx],
          synced.strategy_stats.credited[idx]);
    }
    synced = c;
    reg.GetGauge("fuzz.workers").Set(static_cast<double>(n));
    reg.GetGauge("fuzz.exec_per_s").Set(exec_per_s);
    reg.GetGauge("fuzz.iters_per_s").Set(iters_per_s);
    reg.GetGauge("fuzz.corpus_size").Set(static_cast<double>(c.corpus));
    reg.GetGauge("fuzz.corpus_energy").Set(static_cast<double>(c.corpus_energy));
    reg.GetGauge("fuzz.coverage.decision_pct").Set(report.DecisionPct());
    reg.GetGauge("fuzz.coverage.condition_pct").Set(report.ConditionPct());
    reg.GetGauge("fuzz.coverage.mcdc_pct").Set(report.McdcPct());
  };
  const auto aggregates = [&](double now, const LaneCounters& c,
                              const coverage::MetricReport& report, double exec_per_s) {
    obs::CampaignAggregates agg;
    agg.elapsed_s = now;
    agg.executions = c.executions;
    agg.model_iterations = c.model_iterations;
    agg.exec_per_s = exec_per_s;
    agg.corpus = c.corpus;
    agg.test_cases = c.test_cases;
    agg.decision_pct = report.DecisionPct();
    agg.condition_pct = report.ConditionPct();
    agg.mcdc_pct = report.McdcPct();
    agg.adj_decision_pct = report.AdjustedDecisionPct();
    agg.adj_condition_pct = report.AdjustedConditionPct();
    agg.adj_mcdc_pct = report.AdjustedMcdcPct();
    agg.hangs = c.hangs;
    return agg;
  };

  double next_stat = tm != nullptr && tm->stats_every_s > 0
                         ? tm->stats_every_s
                         : std::numeric_limits<double>::infinity();
  std::uint64_t last_stat_exec = 0;
  std::uint64_t last_stat_iters = 0;
  double last_stat_time = 0;
  // A lane's mean seconds per execution, one sample per heartbeat window
  // (the loop never reads a clock per input).
  obs::Histogram exec_seconds(obs::ExecDurationBucketBounds());
  std::size_t round_lanes = n;  // lanes that ran the last round
  const auto heartbeat = [&]() {
    const double now = elapsed();
    if (now < next_stat) return;
    // The first period boundary past now, in one step: adding one period at
    // a time costs now / stats_every_s iterations, which with a tiny period
    // (a heartbeat per barrier) never catches up on a slow host.
    next_stat += (std::floor((now - next_stat) / tm->stats_every_s) + 1) * tm->stats_every_s;
    if (next_stat <= now) next_stat = now + tm->stats_every_s;
    for (const auto& lane : lanes) lane->MergeCoverageInto(global);
    const LaneCounters c = sum_counters();
    const coverage::MetricReport report = coverage::ComputeReport(global, options.justifications);
    const double window = now - last_stat_time;
    const std::uint64_t window_execs = c.executions - std::min(c.executions, last_stat_exec);
    const double exec_per_s = window > 0 ? static_cast<double>(window_execs) / window : 0;
    const double iters_per_s =
        window > 0 ? static_cast<double>(c.model_iterations - last_stat_iters) / window : 0;
    if (window > 0 && window_execs > 0) {
      const double per_exec =
          window * static_cast<double>(std::max<std::size_t>(round_lanes, 1)) /
          static_cast<double>(window_execs);
      exec_seconds.Record(per_exec);
      if (registry != nullptr) {
        registry->GetHistogram("fuzz.exec_seconds", obs::ExecDurationBucketBounds())
            .Record(per_exec);
      }
    }
    last_stat_time = now;
    last_stat_exec = c.executions;
    last_stat_iters = c.model_iterations;
    sync_registry(c, report, exec_per_s, iters_per_s);
    if (board != nullptr) board->UpdateAggregates(aggregates(now, c, report, exec_per_s));
    if (trace != nullptr) {
      obs::TraceEvent ev("stat");
      ev.F64("time_s", now)
          .U64("exec", c.executions)
          .U64("iters", c.model_iterations)
          .U64("measure_iters", c.measure_iterations)
          .F64("exec_per_s", exec_per_s)
          .F64("iters_per_s", iters_per_s)
          .U64("workers", n)
          .U64("rounds", out.rounds)
          .U64("imports", out.imports)
          .U64("corpus", c.corpus)
          .U64("corpus_energy", c.corpus_energy)
          .U64("max_metric", c.max_metric)
          .U64("test_cases", c.test_cases);
      if (supervision != nullptr) {
        ev.U64("crashes", supervision->crashes).U64("restarts", supervision->restarts);
      }
      ev.F64("decision_pct", report.DecisionPct())
          .F64("condition_pct", report.ConditionPct())
          .F64("mcdc_pct", report.McdcPct());
      for (int s = 0; s < kNumMutationStrategies; ++s) {
        const auto name = std::string(MutationStrategyName(static_cast<MutationStrategy>(s)));
        const auto idx = static_cast<std::size_t>(s);
        ev.U64("strat." + name + ".applied", c.strategy_stats.applied[idx]);
        ev.U64("strat." + name + ".new", c.strategy_stats.credited[idx]);
      }
      trace->Emit(ev);
    }
    trace_profile(now);
    if (tm->status_stream != nullptr) {
      const obs::HistogramSnapshot exec_snap = exec_seconds.Snapshot("fuzz.exec_seconds");
      std::fprintf(tm->status_stream,
                   "#%llu\tcov: %.1f/%.1f/%.1f corp: %llu exec/s: %.0f"
                   " exec_us p50/p95/p99: %.1f/%.1f/%.1f (j%zu%s)\n",
                   static_cast<unsigned long long>(c.executions), report.DecisionPct(),
                   report.ConditionPct(), report.McdcPct(),
                   static_cast<unsigned long long>(c.corpus), exec_per_s,
                   exec_snap.Quantile(0.5) * 1e6, exec_snap.Quantile(0.95) * 1e6,
                   exec_snap.Quantile(0.99) * 1e6, n, supervision != nullptr ? " iso" : "");
    }
  };

  // Seed round: every lane seeds its corpus (or restores its checkpointed
  // state), and the seeds sync before the first fuzzing round so no lane
  // mutates blind to coverage another lane's seeds already reached.
  for (auto& lane : lanes) lane->Begin();
  for (auto& lane : lanes) lane->Await();
  sync();

  // Periodic checkpointing: the whole-campaign checkpoint (lane states +
  // barrier state) is written once the summed execution count crosses each
  // checkpoint_every boundary — evaluated at barriers only, so every
  // checkpoint sits at a deterministic point of the round schedule.
  std::uint64_t next_checkpoint = std::numeric_limits<std::uint64_t>::max();
  if (options.checkpoint_every > 0 && !options.checkpoint_path.empty()) {
    const std::uint64_t every = options.checkpoint_every;
    next_checkpoint = (sum_counters().executions / every + 1) * every;
  }

  std::vector<double> round_t0(n, 0);
  while (true) {
    round_lanes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      reporting[i] = lanes[i]->live() && !lanes[i]->done() ? 1 : 0;
      round_lanes += reporting[i] != 0 ? 1 : 0;
    }
    if (round_lanes == 0) break;
    // Round: every running lane advances sync_every executions, all lanes
    // at once; meanwhile the driver commits the last barrier's checkpoint,
    // then waits for the slowest lane.
    for (std::size_t i = 0; i < n; ++i) {
      if (!reporting[i]) continue;
      round_t0[i] = elapsed();
      lanes[i]->StartRound(lanes[i]->counters().executions + sync_every);
    }
    const bool committed = pending.has_value();
    commit_checkpoint();
    const double commit_end = elapsed();
    for (std::size_t i = 0; i < n; ++i) {
      if (reporting[i]) lanes[i]->Await();
    }
    ++out.rounds;
    // Barrier-idle accounting: the round lasts as long as its slowest lane;
    // everyone else waited the difference out. A commit that outlasts the
    // round is checkpoint time the lanes waited on.
    std::vector<double> dur(n, -1.0);
    double round_span = 0;
    double round_end = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (reporting[i]) dur[i] = lanes[i]->round_seconds();
      round_span = std::max(round_span, dur[i]);
      if (dur[i] >= 0) round_end = std::max(round_end, round_t0[i] + dur[i]);
    }
    if (committed && commit_end > round_end) {
      driver_phases.Add(obs::ProfilePhase::kCheckpoint, (commit_end - round_end) * live_lanes());
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (dur[i] < 0) continue;
      phase[i].Add(dur[i]);
      if (board != nullptr) board->LogSpan("round", static_cast<int>(i) + 1, round_t0[i], dur[i]);
      if (round_span > dur[i]) driver_phases.Add(obs::ProfilePhase::kIdle, round_span - dur[i]);
    }
    const double sync_t0 = elapsed();
    sync();
    driver_phases.Add(obs::ProfilePhase::kCorpusSync, (elapsed() - sync_t0) * live_lanes());
    if (board != nullptr && n > 1) board->LogSpan("sync", 0, sync_t0, elapsed() - sync_t0);
    if (tm != nullptr) heartbeat();
    if (pub != nullptr && elapsed() >= next_profile_pub) {
      const double now = elapsed();
      pub->Publish(merged_profile(now).ToJson());
      next_profile_pub = now + 1.0;
    }
    if (sum_counters().executions >= next_checkpoint) {
      capture_checkpoint();
      next_checkpoint += options.checkpoint_every;
    }
    // Cooperative interruption, honored at the barrier only: lanes always
    // complete their round, so the flushed checkpoint sits at the same
    // schedule point an uninterrupted campaign passes through. A barrier
    // that is also a periodic checkpoint is captured (and written) once.
    if (options.interrupt != nullptr && options.interrupt->load(std::memory_order_relaxed)) {
      out.interrupted = true;
      if (!pending && !options.checkpoint_path.empty()) capture_checkpoint();
      break;
    }
  }
  // The interrupt's or the last barrier's checkpoint, written before the
  // lanes finish: nothing runs behind it.
  driver_phases.Add(obs::ProfilePhase::kCheckpoint, commit_checkpoint() * live_lanes());

  // Final merge, in lane-id order throughout; the lanes finish at once.
  for (auto& lane : lanes) lane->StartFinish();
  for (auto& lane : lanes) lane->Await();
  CampaignResult& merged = out.merged;
  std::unordered_set<std::uint64_t> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    CampaignResult r = lanes[i]->TakeResult();
    merged.executions += r.executions;
    merged.model_iterations += r.model_iterations;
    merged.measure_iterations += r.measure_iterations;
    merged.hangs += r.hangs;
    merged.strategy_stats.MergeFrom(r.strategy_stats);
    merged.focus_stats.MergeFrom(r.focus_stats);
    merged.test_cases.insert(merged.test_cases.end(),
                             std::make_move_iterator(r.test_cases.begin()),
                             std::make_move_iterator(r.test_cases.end()));
    merged.exec_profile.MergeFrom(r.exec_profile);
    merged.fuzz_exec_profile.MergeFrom(r.fuzz_exec_profile);
    merged.phase_profile.MergeFrom(r.phase_profile);
    out.worker_executions.push_back(r.executions);
    lanes[i]->MergeCoverageInto(global);
    // Position-sensitive fold of the lane fingerprints (swapped lane states
    // would not cancel out); a lone lane's fingerprint is its own.
    merged.corpus_fingerprint =
        n == 1 ? r.corpus_fingerprint
               : (merged.corpus_fingerprint ^ r.corpus_fingerprint) * 1099511628211ULL;
    for (std::uint64_t s : lanes[i]->CorpusSignatures()) sigs.insert(s);
  }
  merged.report = coverage::ComputeReport(global, options.justifications);
  merged.coverage_fingerprint = CoverageFingerprint(global);
  merged.elapsed_s = elapsed();
  merged.interrupted = out.interrupted;
  merged.phase_profile.MergeFrom(driver_phases);
  if (pub != nullptr) pub->Publish(merged_profile(merged.elapsed_s).ToJson());
  trace_profile(merged.elapsed_s);
  // Corpus fingerprint: the union of admitted coverage signatures.
  out.corpus_signatures.assign(sigs.begin(), sigs.end());
  std::sort(out.corpus_signatures.begin(), out.corpus_signatures.end());

  // Final board aggregates and registry; published after the provenance
  // merge below so the objective counts make it into the last /status
  // document.
  LaneCounters final_counters = sum_counters();  // corpus sizes and energies
  final_counters.executions = merged.executions;
  final_counters.model_iterations = merged.model_iterations;
  final_counters.measure_iterations = merged.measure_iterations;
  final_counters.hangs = merged.hangs;
  final_counters.test_cases = merged.test_cases.size();
  final_counters.strategy_stats = merged.strategy_stats;
  const double exec_per_s =
      merged.elapsed_s > 0 ? static_cast<double>(merged.executions) / merged.elapsed_s : 0;
  const double iters_per_s =
      merged.elapsed_s > 0 ? static_cast<double>(merged.model_iterations) / merged.elapsed_s : 0;
  obs::CampaignAggregates final_agg =
      aggregates(merged.elapsed_s, final_counters, merged.report, exec_per_s);
  sync_registry(final_counters, merged.report, exec_per_s, iters_per_s);
  if (registry != nullptr) {
    obs::Histogram& tuples =
        registry->GetHistogram("fuzz.test_case_tuples", {1, 2, 4, 8, 16, 32, 64, 128, 256});
    const std::size_t tuple_size = std::max<std::size_t>(instrumented.TupleSize(), 1);
    for (const TestCase& tc : merged.test_cases) {
      tuples.Record(static_cast<double>(tc.data.size() / tuple_size));
    }
  }

  // Merged branch distances: the smallest per outcome slot, folded in
  // lane-id order into the caller's recorder.
  if (options.margins != nullptr) {
    options.margins->Reset(spec);
    for (const auto& lane : lanes) options.margins->MergeFrom(lane->margins());
  }
  // Merged first-hit attribution: earliest lane-local iteration wins, ties
  // to the lowest lane id; folded into the caller's map. Each `objective`
  // event names the lane whose corpus entry it cites.
  if (options.provenance != nullptr) {
    std::vector<const coverage::ProvenanceMap*> maps;
    for (const auto& lane : lanes) maps.push_back(lane->provenance());
    std::vector<std::size_t> origin;
    const auto hits = coverage::MergeFirstHits(maps, &origin);
    for (std::size_t k = 0; k < hits.size(); ++k) {
      if (options.provenance->AbsorbHit(hits[k]) && trace != nullptr) {
        trace->Emit(ObjectiveEvent(hits[k]).U64("lane", origin[k]));
      }
    }
    if (tm != nullptr) {
      EmitResiduals(*tm, spec, global.total(), *options.provenance, options.margins,
                    options.justifications);
    }
    final_agg.objectives_covered = options.provenance->num_covered();
    final_agg.objectives_total = options.provenance->num_objectives();
  }
  if (board != nullptr) board->UpdateAggregates(final_agg);

  if (tm != nullptr) {
    for (std::size_t i = 0; i < n; ++i) phase[i].Commit(registry, trace);
  }
  if (trace != nullptr) {
    if (supervision != nullptr) {
      trace->Emit(obs::TraceEvent("supervision")
                      .F64("time_s", merged.elapsed_s)
                      .U64("crashes", supervision->crashes)
                      .U64("hang_kills", supervision->hang_kills)
                      .U64("restarts", supervision->restarts)
                      .U64("lanes_retired", supervision->lanes_retired));
    }
    trace->Emit(obs::TraceEvent("stop")
                    .F64("elapsed_s", merged.elapsed_s)
                    .U64("exec", merged.executions)
                    .U64("iters", merged.model_iterations)
                    .U64("measure_iters", merged.measure_iterations)
                    .F64("exec_per_s", exec_per_s)
                    .U64("workers", n)
                    .U64("rounds", out.rounds)
                    .U64("imports", out.imports)
                    .U64("corpus", final_counters.corpus)
                    .U64("test_cases", merged.test_cases.size())
                    .F64("decision_pct", merged.report.DecisionPct())
                    .F64("condition_pct", merged.report.ConditionPct())
                    .F64("mcdc_pct", merged.report.McdcPct()));
    trace->Flush();
  }
  out.coverage = std::move(global);
  return out;
}

ParallelFuzzer::ParallelFuzzer(const vm::Program& instrumented,
                               const coverage::CoverageSpec& spec, FuzzerOptions options,
                               ParallelOptions parallel, const vm::Program* fuzz_only_program)
    : instrumented_(&instrumented),
      fuzz_only_(fuzz_only_program),
      spec_(&spec),
      options_(std::move(options)),
      parallel_(parallel) {}

ParallelCampaignResult ParallelFuzzer::Run(const FuzzBudget& budget) {
  return RunLaneCampaign(*instrumented_, *spec_, options_, parallel_, budget,
                         [this](const LaneSpec& lane) -> std::unique_ptr<Lane> {
                           return std::make_unique<ThreadLane>(*instrumented_, *spec_,
                                                               fuzz_only_, lane);
                         });
}

}  // namespace cftcg::fuzz
