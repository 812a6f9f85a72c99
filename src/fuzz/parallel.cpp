#include "fuzz/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <limits>
#include <thread>
#include <unordered_set>

#include "coverage/report.hpp"
#include "fuzz/lane.hpp"
#include "obs/monitor.hpp"
#include "obs/timer.hpp"
#include "support/atomic_file.hpp"
#include "support/rng.hpp"

namespace cftcg::fuzz {

namespace {

// In-process transport: the lane's Fuzzer runs each round on a thread of
// its own. Lanes share only the read-only Programs, and AwaitRound joins the
// thread before the driver reads anything, so the barrier needs no locking.
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
    options.resume = lane.resume;
    fuzzer_ = std::make_unique<Fuzzer>(instrumented, spec, options, fuzz_only);
  }
  ~ThreadLane() override { AwaitRound(); }

  void Begin() override { fuzzer_->Begin(budget_); }
  void StartRound(std::uint64_t target) override {
    round_s_ = -1;
    thread_ = std::thread([this, target] {
      const obs::Stopwatch watch;
      fuzzer_->RunChunk(target);
      round_s_ = watch.Elapsed();
    });
  }
  void AwaitRound() override {
    if (thread_.joinable()) thread_.join();
  }
  std::vector<const CorpusEntry*> NewEntries(std::size_t from) const override {
    const Corpus& corpus = fuzzer_->corpus();
    std::vector<const CorpusEntry*> out;
    for (std::size_t k = from; k < corpus.size(); ++k) out.push_back(&corpus.entry(k));
    return out;
  }
  void Sync(const std::vector<const CorpusEntry*>& imports) override {
    for (const CorpusEntry* e : imports) fuzzer_->ImportEntry(e->data, e->signature);
  }
  CampaignResult Finish() override { return fuzzer_->Finish(); }

  bool done() const override { return fuzzer_->done(); }
  std::uint64_t executions() const override { return fuzzer_->executions(); }
  std::uint64_t model_iterations() const override { return fuzzer_->model_iterations(); }
  std::size_t corpus_size() const override { return fuzzer_->corpus().size(); }
  double round_seconds() const override { return round_s_; }
  void MergeCoverageInto(coverage::CoverageSink& global) const override {
    global.MergeFrom(fuzzer_->sink());
  }
  const vm::ExecProfile& exec_profile() const override { return fuzzer_->exec_profile(); }
  const obs::PhaseProfile& phase_profile() const override { return fuzzer_->phase_profile(); }
  FuzzerState SaveState() const override { return fuzzer_->SaveState(); }
  std::vector<std::uint64_t> CorpusSignatures() const override {
    const Corpus& corpus = fuzzer_->corpus();
    std::vector<std::uint64_t> out;
    out.reserve(corpus.size());
    for (std::size_t k = 0; k < corpus.size(); ++k) out.push_back(corpus.entry(k).signature);
    return out;
  }
  const coverage::ProvenanceMap* provenance() const override { return provenance_.get(); }

 private:
  FuzzBudget budget_;
  std::unique_ptr<coverage::ProvenanceMap> provenance_;
  std::unique_ptr<Fuzzer> fuzzer_;
  double round_s_ = -1;
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
  obs::CampaignStatusBoard* const board = options.status_board;
  obs::ProfilePublisher* const pub = options.profile_publisher;
  const char* const mode = options.model_oriented ? "cftcg" : "fuzz_only";
  const CampaignClock clock(resume != nullptr ? resume->elapsed_s : 0);
  const auto elapsed = [&clock] { return clock.Now(); };
  ParallelCampaignResult out;

  if (tm != nullptr && tm->trace != nullptr) {
    obs::TraceEvent ev(resume != nullptr ? "resume" : "start");
    ev.Str("mode", mode).U64("seed", options.seed).U64("workers", n).U64("sync_every", sync_every);
    if (supervision != nullptr) ev.U64("isolated", 1);
    if (resume != nullptr) {
      ev.U64("rounds", resume->rounds).F64("resumed_elapsed_s", resume->elapsed_s);
    } else {
      ev.F64("budget_s", budget.wall_seconds)
          .I64("fuzz_slots", spec.FuzzBranchCount())
          .I64("outcome_slots", spec.num_outcome_slots());
    }
    tm->trace->Emit(ev);
  }

  // Lane RNG streams: lane 0 runs the campaign seed itself — that is what
  // makes a one-lane campaign bit-identical to the sequential Fuzzer — and
  // lanes i > 0 draw forked seeds from a master stream (Rng::Fork
  // semantics: seed_i = master.NextU64()). Execution quotas, not wall time,
  // bound the deterministic schedule: an even split of the campaign budget,
  // with the remainder spread over the first lanes.
  Rng master(options.seed);
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    LaneSpec lane;
    lane.index = static_cast<int>(i);
    lane.options = options;
    lane.options.seed = i == 0 ? options.seed : master.NextU64();
    lane.options.status_worker = static_cast<int>(i);
    // The driver owns telemetry (aggregated heartbeats, per-lane phase
    // spans), profile publication and first-hit attribution (merged at the
    // end). Durability too: a lane seeing the interrupt flag mid-round would
    // stop at an uneven execution count and wreck the round schedule, so
    // interrupts and checkpoints happen at barriers, where the whole
    // campaign is at a well-defined point. Margins are sequential-only
    // (per-lane recorders have no merge semantics). Hang quarantine stays
    // per lane (content-hashed names, atomic writes: no collisions).
    lane.options.telemetry = nullptr;
    lane.options.margins = nullptr;
    lane.options.interrupt = nullptr;
    lane.options.checkpoint_path.clear();
    lane.options.checkpoint_every = 0;
    lane.options.profile_publisher = nullptr;
    lane.options.provenance = nullptr;
    lane.want_provenance = options.provenance != nullptr;
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
  const std::uint64_t strobe_period = options.profile_timing ? options.profile_strobe_period : 0;
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
    exec.strobe_period = strobe_period;
    obs::CampaignProfile p = obs::BuildCampaignProfile(instrumented, exec, phases);
    p.mode = mode;
    p.seed = options.seed;
    p.workers = static_cast<int>(n);
    p.elapsed_s = now;
    return p;
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
  const auto total_executions = [&]() {
    std::uint64_t exec = 0;
    for (const auto& lane : lanes) exec += lane->executions();
    return exec;
  };

  std::uint64_t checkpoint_ordinal = 0;
  const auto write_checkpoint = [&]() {
    const double ckpt_t0 = elapsed();
    CampaignCheckpoint ckpt;
    ckpt.spec_fingerprint = SpecFingerprint(spec, instrumented);
    ckpt.seed = options.seed;
    ckpt.model_oriented = options.model_oriented;
    ckpt.use_idc_energy = options.use_idc_energy;
    ckpt.analyzed = options.justifications != nullptr;
    ckpt.max_tuples = options.max_tuples;
    ckpt.step_budget = options.step_budget;
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
    std::string bytes = SerializeCheckpoint(ckpt);
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
        if (tm != nullptr && tm->trace != nullptr) {
          tm->trace->Emit(obs::TraceEvent("fault_injected")
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
      }
    }
    if (tm != nullptr && tm->trace != nullptr) {
      tm->trace->Emit(obs::TraceEvent("checkpoint")
                          .F64("time_s", elapsed())
                          .U64("exec", total_executions())
                          .U64("bytes", bytes.size())
                          .U64("ok", status.ok() && !torn ? 1 : 0));
    }
    if (tm != nullptr && tm->registry != nullptr) {
      tm->registry->GetCounter("fuzz.checkpoints").Increment();
    }
    driver_phases.Add(obs::ProfilePhase::kCheckpoint, elapsed() - ckpt_t0);
  };

  // The barrier merge, single-threaded in lane-id order. Pass 1 collects the
  // entries each reporting lane admitted since the last barrier whose
  // coverage signature is globally new (first lane in id order wins a
  // signature); pass 2 replays every export into every other live lane.
  // Imports draw nothing from lane RNG streams and their iterations are
  // booked as measurement, so the schedule stays deterministic and the
  // throughput numbers honest.
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
    // Imported entries carry already-seen signatures; the cursors skip over
    // them so the next scan starts at fresh entries.
    for (std::size_t j = 0; j < n; ++j) {
      if (!reporting[j] || !lanes[j]->live()) continue;
      lanes[j]->Sync(imports[j]);
      scanned[j] = lanes[j]->corpus_size();
    }
  };

  double next_stat = tm != nullptr && tm->stats_every_s > 0
                         ? tm->stats_every_s
                         : std::numeric_limits<double>::infinity();
  std::uint64_t last_stat_exec = 0;
  double last_stat_time = 0;
  const auto heartbeat = [&]() {
    const double now = elapsed();
    if (now < next_stat) return;
    do next_stat += tm->stats_every_s;
    while (next_stat <= now);
    std::uint64_t exec = 0;
    std::uint64_t corpus = 0;
    std::uint64_t iters = 0;
    for (const auto& lane : lanes) {
      lane->MergeCoverageInto(global);
      exec += lane->executions();
      corpus += lane->corpus_size();
      iters += lane->model_iterations();
    }
    const coverage::MetricReport report = coverage::ComputeReport(global, options.justifications);
    const double window = now - last_stat_time;
    const double exec_per_s = window > 0 ? static_cast<double>(exec - last_stat_exec) / window : 0;
    last_stat_time = now;
    last_stat_exec = exec;
    if (board != nullptr) {
      obs::CampaignAggregates agg;
      agg.elapsed_s = now;
      agg.executions = exec;
      agg.model_iterations = iters;
      agg.exec_per_s = exec_per_s;
      agg.corpus = corpus;
      agg.decision_pct = report.DecisionPct();
      agg.condition_pct = report.ConditionPct();
      agg.mcdc_pct = report.McdcPct();
      agg.adj_decision_pct = report.AdjustedDecisionPct();
      agg.adj_condition_pct = report.AdjustedConditionPct();
      agg.adj_mcdc_pct = report.AdjustedMcdcPct();
      board->UpdateAggregates(agg);
    }
    if (tm->registry != nullptr) {
      tm->registry->GetGauge("fuzz.exec_per_s").Set(exec_per_s);
      tm->registry->GetGauge("fuzz.corpus_size").Set(static_cast<double>(corpus));
      tm->registry->GetGauge("fuzz.coverage.decision_pct").Set(report.DecisionPct());
      tm->registry->GetGauge("fuzz.coverage.condition_pct").Set(report.ConditionPct());
      tm->registry->GetGauge("fuzz.coverage.mcdc_pct").Set(report.McdcPct());
    }
    if (tm->trace != nullptr) {
      obs::TraceEvent ev("stat");
      ev.F64("time_s", now)
          .U64("exec", exec)
          .F64("exec_per_s", exec_per_s)
          .U64("workers", n)
          .U64("rounds", out.rounds)
          .U64("imports", out.imports)
          .U64("corpus", corpus);
      if (supervision != nullptr) {
        ev.U64("crashes", supervision->crashes).U64("restarts", supervision->restarts);
      }
      ev.F64("decision_pct", report.DecisionPct())
          .F64("condition_pct", report.ConditionPct())
          .F64("mcdc_pct", report.McdcPct());
      tm->trace->Emit(ev);
    }
    if (tm->status_stream != nullptr) {
      std::fprintf(tm->status_stream,
                   "#%llu\tcov: %.1f/%.1f/%.1f corp: %llu exec/s: %.0f (j%zu%s)\n",
                   static_cast<unsigned long long>(exec), report.DecisionPct(),
                   report.ConditionPct(), report.McdcPct(),
                   static_cast<unsigned long long>(corpus), exec_per_s, n,
                   supervision != nullptr ? " iso" : "");
    }
  };

  // Seed round: every lane seeds its corpus (or restores its checkpointed
  // state), and the seeds sync before the first fuzzing round so no lane
  // mutates blind to coverage another lane's seeds already reached.
  for (auto& lane : lanes) lane->Begin();
  for (auto& lane : lanes) lane->AwaitRound();
  sync();

  // Periodic checkpointing: the whole-campaign checkpoint (lane states +
  // barrier state) is written once the summed execution count crosses each
  // checkpoint_every boundary — evaluated at barriers only, so every
  // checkpoint sits at a deterministic point of the round schedule.
  std::uint64_t next_checkpoint = std::numeric_limits<std::uint64_t>::max();
  if (options.checkpoint_every > 0 && !options.checkpoint_path.empty()) {
    const std::uint64_t every = options.checkpoint_every;
    next_checkpoint = (total_executions() / every + 1) * every;
  }

  std::vector<double> round_t0(n, 0);
  while (true) {
    bool any_running = false;
    for (std::size_t i = 0; i < n; ++i) {
      reporting[i] = lanes[i]->live() && !lanes[i]->done() ? 1 : 0;
      any_running |= reporting[i] != 0;
    }
    if (!any_running) break;
    // Round: every running lane advances sync_every executions, all lanes
    // at once; the barrier waits for the slowest.
    for (std::size_t i = 0; i < n; ++i) {
      if (!reporting[i]) continue;
      round_t0[i] = elapsed();
      lanes[i]->StartRound(lanes[i]->executions() + sync_every);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (reporting[i]) lanes[i]->AwaitRound();
    }
    ++out.rounds;
    // Barrier-idle accounting: the round lasts as long as its slowest lane;
    // everyone else waited the difference out.
    std::vector<double> dur(n, -1.0);
    double round_span = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (reporting[i]) dur[i] = lanes[i]->round_seconds();
      round_span = std::max(round_span, dur[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (dur[i] < 0) continue;
      phase[i].Add(dur[i]);
      if (board != nullptr) board->LogSpan("round", static_cast<int>(i) + 1, round_t0[i], dur[i]);
      if (round_span > dur[i]) driver_phases.Add(obs::ProfilePhase::kIdle, round_span - dur[i]);
    }
    const double sync_t0 = elapsed();
    sync();
    driver_phases.Add(obs::ProfilePhase::kCorpusSync, elapsed() - sync_t0);
    if (board != nullptr && n > 1) board->LogSpan("sync", 0, sync_t0, elapsed() - sync_t0);
    if (tm != nullptr) heartbeat();
    if (pub != nullptr && elapsed() >= next_profile_pub) {
      const double now = elapsed();
      pub->Publish(merged_profile(now).ToJson());
      next_profile_pub = now + 1.0;
    }
    if (total_executions() >= next_checkpoint) {
      write_checkpoint();
      next_checkpoint += options.checkpoint_every;
    }
    // Cooperative interruption, honored at the barrier only: lanes always
    // complete their round, so the flushed checkpoint sits at the same
    // schedule point an uninterrupted campaign passes through.
    if (options.interrupt != nullptr && options.interrupt->load(std::memory_order_relaxed)) {
      out.interrupted = true;
      if (!options.checkpoint_path.empty()) write_checkpoint();
      break;
    }
  }

  // Final merge, in lane-id order throughout.
  CampaignResult& merged = out.merged;
  std::unordered_set<std::uint64_t> sigs;
  std::uint64_t corpus_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    CampaignResult r = lanes[i]->Finish();
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
    // Position-sensitive fold of the lane fingerprints: swapped lane states
    // would not cancel out.
    merged.corpus_fingerprint =
        (merged.corpus_fingerprint ^ r.corpus_fingerprint) * 1099511628211ULL;
    for (std::uint64_t s : lanes[i]->CorpusSignatures()) sigs.insert(s);
    corpus_total += lanes[i]->corpus_size();
  }
  merged.report = coverage::ComputeReport(global, options.justifications);
  merged.coverage_fingerprint = CoverageFingerprint(global);
  merged.elapsed_s = elapsed();
  merged.interrupted = out.interrupted;
  merged.exec_profile.strobe_period = strobe_period;
  merged.phase_profile.MergeFrom(driver_phases);
  if (pub != nullptr) pub->Publish(merged_profile(merged.elapsed_s).ToJson());
  // Corpus fingerprint: the union of admitted coverage signatures.
  out.corpus_signatures.assign(sigs.begin(), sigs.end());
  std::sort(out.corpus_signatures.begin(), out.corpus_signatures.end());

  // Final board aggregates; published after the provenance merge below so
  // the objective counts make it into the last /status document.
  obs::CampaignAggregates final_agg;
  final_agg.elapsed_s = merged.elapsed_s;
  final_agg.executions = merged.executions;
  final_agg.model_iterations = merged.model_iterations;
  final_agg.exec_per_s =
      merged.elapsed_s > 0 ? static_cast<double>(merged.executions) / merged.elapsed_s : 0;
  final_agg.corpus = corpus_total;
  final_agg.test_cases = merged.test_cases.size();
  final_agg.decision_pct = merged.report.DecisionPct();
  final_agg.condition_pct = merged.report.ConditionPct();
  final_agg.mcdc_pct = merged.report.McdcPct();
  final_agg.adj_decision_pct = merged.report.AdjustedDecisionPct();
  final_agg.adj_condition_pct = merged.report.AdjustedConditionPct();
  final_agg.adj_mcdc_pct = merged.report.AdjustedMcdcPct();
  final_agg.hangs = merged.hangs;

  // Merged first-hit attribution: earliest lane-local iteration wins, ties
  // to the lowest lane id; folded into the caller's map.
  if (options.provenance != nullptr) {
    std::vector<const coverage::ProvenanceMap*> maps;
    for (const auto& lane : lanes) maps.push_back(lane->provenance());
    for (const auto& h : coverage::MergeFirstHits(maps)) options.provenance->AbsorbHit(h);
    if (tm != nullptr && tm->trace != nullptr) {
      for (const auto& h : options.provenance->hits()) {
        tm->trace->Emit(obs::TraceEvent("objective")
                            .Str("kind", coverage::ObjectiveKindName(h.kind))
                            .Str("name", h.name)
                            .I64("outcome", h.outcome)
                            .I64("slot", h.slot)
                            .U64("iter", h.iteration)
                            .F64("time_s", h.time_s)
                            .I64("entry", h.entry_id)
                            .Str("chain", h.chain));
      }
      tm->trace->Emit(obs::TraceEvent("provenance")
                          .U64("covered", options.provenance->num_covered())
                          .U64("total", options.provenance->num_objectives()));
    }
    if (tm != nullptr && tm->registry != nullptr) {
      tm->registry->GetGauge("fuzz.objectives_covered")
          .Set(static_cast<double>(options.provenance->num_covered()));
      tm->registry->GetGauge("fuzz.objectives_total")
          .Set(static_cast<double>(options.provenance->num_objectives()));
    }
    final_agg.objectives_covered = options.provenance->num_covered();
    final_agg.objectives_total = options.provenance->num_objectives();
  }
  if (board != nullptr) board->UpdateAggregates(final_agg);

  if (tm != nullptr) {
    if (tm->registry != nullptr) {
      obs::Registry& reg = *tm->registry;
      reg.GetCounter("fuzz.executions").Add(merged.executions);
      reg.GetCounter("fuzz.model_iterations").Add(merged.model_iterations);
      reg.GetCounter("fuzz.measure_iterations").Add(merged.measure_iterations);
      reg.GetGauge("fuzz.workers").Set(static_cast<double>(n));
      reg.GetGauge("fuzz.coverage.decision_pct").Set(merged.report.DecisionPct());
      reg.GetGauge("fuzz.coverage.condition_pct").Set(merged.report.ConditionPct());
      reg.GetGauge("fuzz.coverage.mcdc_pct").Set(merged.report.McdcPct());
    }
    for (std::size_t i = 0; i < n; ++i) phase[i].Commit(tm->registry, tm->trace);
    if (tm->trace != nullptr) {
      if (supervision != nullptr) {
        tm->trace->Emit(obs::TraceEvent("supervision")
                            .F64("time_s", merged.elapsed_s)
                            .U64("crashes", supervision->crashes)
                            .U64("hang_kills", supervision->hang_kills)
                            .U64("restarts", supervision->restarts)
                            .U64("lanes_retired", supervision->lanes_retired));
      }
      tm->trace->Emit(obs::TraceEvent("stop")
                          .F64("elapsed_s", merged.elapsed_s)
                          .U64("exec", merged.executions)
                          .U64("iters", merged.model_iterations)
                          .U64("measure_iters", merged.measure_iterations)
                          .F64("exec_per_s", merged.elapsed_s > 0
                                                 ? static_cast<double>(merged.executions) /
                                                       merged.elapsed_s
                                                 : 0)
                          .U64("workers", n)
                          .U64("rounds", out.rounds)
                          .U64("imports", out.imports)
                          .U64("test_cases", merged.test_cases.size())
                          .F64("decision_pct", merged.report.DecisionPct())
                          .F64("condition_pct", merged.report.ConditionPct())
                          .F64("mcdc_pct", merged.report.McdcPct()));
      tm->trace->Flush();
    }
  }
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
