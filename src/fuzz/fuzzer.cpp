#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

#include "fuzz/checkpoint.hpp"
#include "ir/value.hpp"
#include "obs/clock.hpp"
#include "obs/monitor.hpp"
#include "support/atomic_file.hpp"

namespace cftcg::fuzz {

namespace {

const std::vector<std::uint8_t> kEmptyInput;

}  // namespace

Fuzzer::Fuzzer(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
               FuzzerOptions options, const vm::Program* fuzz_only_program)
    : instrumented_(&instrumented),
      fuzz_only_(fuzz_only_program),
      spec_(&spec),
      options_(options),
      machine_(instrumented),
      sink_(spec),
      tuple_mutator_(TupleLayout(instrumented.input_types), options.max_tuples),
      byte_mutator_(options.max_tuples * std::max<std::size_t>(instrumented.TupleSize(), 1)),
      rng_(options.seed),
      trace_(options.telemetry != nullptr ? options.telemetry->trace : nullptr) {
  last_cov_.Resize(static_cast<std::size_t>(spec.FuzzBranchCount()));
  assert(options_.model_oriented || fuzz_only_ != nullptr);
  // Comparison tracing (libFuzzer TORC): operands of failed equality
  // comparisons feed the mutation dictionary in both modes.
  machine_.set_cmp_trace(&cmp_trace_);
  // Hang containment: cap backward control transfers per model iteration.
  machine_.set_step_budget(options_.step_budget);
  // Self-profiling count plane: always attached (one add per Step and per
  // taken jump, expanded into per-instruction counts whenever the planes are
  // read: FlushProfiles).
  exec_profile_.AttachTo(instrumented);
  machine_.set_profile(&exec_profile_);
  if (!options_.field_ranges.empty()) tuple_mutator_.SetFieldRanges(options_.field_ranges);
  // Residual-distance recording: the machine records the program's margin
  // side table while a recorder is attached.
  if (options_.margins != nullptr) {
    options_.margins->Reset(spec);
    machine_.set_margins(options_.margins);
  }
}

void Fuzzer::FlushProfiles() const {
  machine_.FlushProfile();
  if (fuzz_machine_) fuzz_machine_->FlushProfile();
}

int Fuzzer::DecisionOutcomesCovered() const {
  int covered = 0;
  for (int slot = 0; slot < spec_->num_outcome_slots(); ++slot) {
    if (sink_.total().Test(static_cast<std::size_t>(slot))) ++covered;
  }
  return covered;
}

std::size_t Fuzzer::IdcDensity(std::size_t metric, const std::vector<std::uint8_t>& data) const {
  // The raw IDC metric is a sum over iterations, so longer inputs score
  // higher just by being long; energy and admission use the per-iteration
  // density instead (scaled x16 to keep integer resolution).
  const std::size_t tuple_size = std::max<std::size_t>(instrumented_->TupleSize(), 1);
  return metric * 16 / std::max<std::size_t>(data.size() / tuple_size, 1);
}

std::size_t Fuzzer::RunOneInstrumented(const std::vector<std::uint8_t>& data, bool* found_new,
                                       std::size_t* new_slots) {
  // Algorithm 1 (Model Coverage Collection).
  if (options_.input_tap != nullptr) {
    options_.input_tap(options_.input_tap_ctx, data.data(), data.size());
  }
  const std::size_t tuple_size = instrumented_->TupleSize();
  machine_.Reset();              // Model_init()
  std::size_t metric = 0;        // Iteration Difference Coverage
  last_cov_.ClearAll();          // lastCov = {0,...}
  bool any_new = false;
  std::size_t total_new = 0;
  std::uint64_t signature = DynamicBitset::kHashBasis;
  last_input_hung_ = false;
  // g_CurrCov is clear here: FinishIteration clears it after every
  // complete iteration, and a hang clears it below.
  for (std::size_t off = 0; off + tuple_size <= data.size(); off += tuple_size) {
    machine_.SetInputsFromBytes(data.data() + off);
    if (!machine_.Step(&sink_)) {              // Model_step(tuple)
      // Step budget blown: discard the aborted iteration's partial coverage
      // and stop replaying this input; the caller quarantines it. Coverage
      // accumulated by earlier (complete) iterations is kept.
      sink_.BeginIteration();
      last_input_hung_ = true;
      break;
    }
    ++model_iterations_;
    // New bits vs g_TotalCov, the per-branch difference count against
    // lastCov, lastCov = g_CurrCov and g_CurrCov = {0,...}, in one pass.
    const coverage::CoverageSink::IterationDelta delta = sink_.FinishIteration(last_cov_);
    if (delta.new_bits > 0) {
      any_new = true;  // outputTestCase(data, size)
      total_new += delta.new_bits;
    }
    metric += delta.differences;
    if (options_.collect_signatures) signature = DynamicBitset::HashWord(signature, delta.hash);
  }
  if (options_.collect_signatures) last_signature_ = signature;
  if (found_new != nullptr) *found_new = any_new;
  if (new_slots != nullptr) *new_slots = total_new;
  return metric;
}

void Fuzzer::MeasureOnInstrumented(const std::vector<std::uint8_t>& data) {
  // Measurement re-runs replay an input on the instrumented program (the
  // paper's post-hoc Simulink coverage measurement); their iterations are
  // booked under measure_iterations so throughput only counts the fuzzing
  // target.
  const std::uint64_t before = model_iterations_;
  bool unused_new = false;
  std::size_t unused_slots = 0;
  RunOneInstrumented(data, &unused_new, &unused_slots);
  measure_iterations_ += model_iterations_ - before;
  model_iterations_ = before;
}

std::size_t Fuzzer::RunOneEdges(const std::vector<std::uint8_t>& data, bool* found_new) {
  assert(fuzz_only_ != nullptr);
  if (options_.input_tap != nullptr) {
    options_.input_tap(options_.input_tap_ctx, data.data(), data.size());
  }
  if (!fuzz_machine_) {
    fuzz_machine_ = std::make_unique<vm::Machine>(*fuzz_only_);
    fuzz_machine_->set_cmp_trace(&cmp_trace_);
    fuzz_machine_->set_step_budget(options_.step_budget);
    fuzz_exec_profile_.AttachTo(*fuzz_only_);
    fuzz_machine_->set_profile(&fuzz_exec_profile_);
  }
  vm::Machine* fuzz_machine = fuzz_machine_.get();
  if (edge_total_.empty()) {
    edge_total_.assign(static_cast<std::size_t>(fuzz_only_->num_edges), 0);
    edge_curr_.assign(static_cast<std::size_t>(fuzz_only_->num_edges), 0);
  }
  std::fill(edge_curr_.begin(), edge_curr_.end(), 0);
  const std::size_t tuple_size = fuzz_only_->TupleSize();
  fuzz_machine->Reset();
  assert(tuple_size == instrumented_->TupleSize());
  last_input_hung_ = false;
  for (std::size_t off = 0; off + tuple_size <= data.size(); off += tuple_size) {
    fuzz_machine->SetInputsFromBytes(data.data() + off);
    if (!fuzz_machine->Step(nullptr, edge_curr_.data())) {
      last_input_hung_ = true;
      break;
    }
    ++model_iterations_;
  }
  bool any_new = false;
  std::size_t covered = 0;
  std::uint64_t signature = DynamicBitset::kHashBasis;
  for (std::size_t i = 0; i < edge_curr_.size(); ++i) {
    if (edge_curr_[i] != 0) {
      ++covered;
      if (options_.collect_signatures) signature = DynamicBitset::HashWord(signature, i);
      if (edge_total_[i] == 0) {
        edge_total_[i] = 1;
        any_new = true;
      }
    }
  }
  if (options_.collect_signatures) last_signature_ = signature;
  if (found_new != nullptr) *found_new = any_new;
  return covered;
}

void Fuzzer::Attribute(double t, std::int64_t entry_id, const std::string& chain) {
  coverage::ProvenanceMap* prov = options_.provenance;
  prov->AttributeSlots(sink_.total(), result_.executions, t, entry_id, chain);
  // MCDC pairs can complete without any new branch slot, so recheck every
  // decision whose evaluation set grew since the last admission.
  const auto& evals = sink_.evals();
  for (std::size_t d = 0; d < evals.size(); ++d) {
    if (evals[d].size() == seen_eval_sizes_[d]) continue;
    seen_eval_sizes_[d] = evals[d].size();
    prov->AttributeMcdc(static_cast<coverage::DecisionId>(d), evals[d], result_.executions, t,
                        entry_id, chain);
  }
}

void Fuzzer::TraceNew(const TestCase& tc, std::size_t metric, std::size_t tuple_size) {
  if (trace_ == nullptr) return;
  const std::size_t tuples = tc.data.size() / tuple_size;
  trace_->Emit(obs::TraceEvent("new")
                   .F64("time_s", tc.time_s)
                   .U64("exec", result_.executions)
                   .U64("new_slots", tc.new_slots)
                   .I64("outcomes_covered", tc.decision_outcomes_covered)
                   .U64("corpus", corpus_.size())
                   .U64("idc", metric)
                   .U64("tuples", tuples));
  // Coverage-frontier update: the covered branch-slot set grew.
  const std::size_t covered = sink_.total().Count();
  if (covered > last_frontier_) {
    last_frontier_ = covered;
    trace_->Emit(obs::TraceEvent("frontier")
                     .F64("time_s", tc.time_s)
                     .U64("covered_slots", covered)
                     .I64("total_slots", spec_->FuzzBranchCount())
                     .I64("outcomes_covered", tc.decision_outcomes_covered));
  }
}

void Fuzzer::TraceCorpus(const std::string& chain) {
  if (trace_ == nullptr) return;
  const CorpusEntry& entry = corpus_.entry(corpus_.size() - 1);
  trace_->Emit(obs::TraceEvent("corpus")
                   .F64("time_s", Elapsed())
                   .I64("id", entry.id)
                   .I64("parent", entry.parent_id)
                   .U64("depth", entry.depth)
                   .Str("chain", chain)
                   .U64("metric", entry.metric)
                   .U64("new_slots", entry.new_slots));
}

void Fuzzer::Begin(const FuzzBudget& budget) {
  assert(!campaign_active_);
  campaign_active_ = true;
  campaign_done_ = false;
  budget_ = budget;
  result_ = CampaignResult{};
  best_metric_ = 0;
  time_base_ = 0;
  track_strategies_ = options_.model_oriented;
  // One monotonic clock (obs::Clock) drives every timestamp of the
  // campaign: TestCase::time_s, elapsed_s, and trace-event times.
  watch_.Restart();

  // Per-objective first-hit attribution. Runs only on corpus admissions
  // (rare), so a provenance-enabled campaign pays nothing per execution;
  // a campaign without a ProvenanceMap skips even the admission-time work.
  if (options_.provenance != nullptr) seen_eval_sizes_.assign(spec_->decisions().size(), 0);

  if (options_.resume != nullptr) {
    // Resume path: restore the checkpointed state instead of seeding. The
    // first mutation drawn after this is the exact one the interrupted
    // campaign would have drawn next.
    RestoreFromState(*options_.resume);
  } else {
    const std::size_t tuple_size = std::max<std::size_t>(instrumented_->TupleSize(), 1);
    // Seed corpus: a handful of short random inputs, then (when the static
    // analyzer supplied inport ranges) deterministic boundary-value inputs.
    // Seeding is execution work, so the timed profile books it as execute.
    obs::PhaseLapTimer lap(options_.profile_timing ? &phase_profile_ : nullptr);
    lap.Arm();
    for (std::size_t k = 0; k < options_.seed_inputs; ++k) {
      const std::size_t n = 1 + rng_.NextBelow(32);
      AdmitSeed(tuple_mutator_.RandomInput(n, rng_), "seed", tuple_size);
    }
    SeedBoundaryInputs(tuple_size);
    frontier_exhausted_ = AllReachableCovered();
    focus_frontier_stale_ = true;
    lap.Lap(obs::ProfilePhase::kExecute);
  }
}

void Fuzzer::AdmitSeed(std::vector<std::uint8_t> data, const char* chain,
                       std::size_t tuple_size) {
  CorpusEntry seed;
  seed.data = std::move(data);
  bool found_new = false;
  std::size_t new_slots = 0;
  std::size_t metric = 0;
  if (options_.model_oriented) {
    metric = IdcDensity(RunOneInstrumented(seed.data, &found_new, &new_slots), seed.data);
    seed.metric = metric;
  } else {
    seed.metric = RunOneEdges(seed.data, &found_new);
    metric = seed.metric;
    if (found_new && !last_input_hung_) MeasureOnInstrumented(seed.data);
  }
  ++result_.executions;
  if (options_.status_board != nullptr) {
    options_.status_board->StampWorker(options_.status_worker, result_.executions);
  }
  if (last_input_hung_) {
    // A seed that wedges the model is quarantined, not admitted — the rest
    // of the seed schedule proceeds (same RNG draws as a healthy campaign).
    QuarantineHang(seed.data);
    return;
  }
  seed.new_slots = new_slots;
  seed.signature = last_signature_;
  if (!options_.use_idc_energy) seed.metric = 0;
  if (found_new) {
    result_.test_cases.push_back(
        TestCase{seed.data, Elapsed(), new_slots, DecisionOutcomesCovered()});
    TraceNew(result_.test_cases.back(), metric, tuple_size);
  }
  best_metric_ = std::max(best_metric_, seed.metric);
  if (options_.provenance != nullptr) Attribute(Elapsed(), corpus_.next_id(), chain);
  corpus_.Add(std::move(seed));
  TraceCorpus(chain);
}

void Fuzzer::SeedBoundaryInputs(std::size_t tuple_size) {
  if (options_.boundary_seed_ranges.empty()) return;
  const TupleLayout& layout = tuple_mutator_.layout();
  if (layout.num_fields() == 0 || layout.tuple_size() == 0) return;
  // Four deterministic inputs over the analyzer's harvested ranges: every
  // field at its low bound, high bound, midpoint, and alternating lo/hi per
  // iteration (the alternation drives delta-sensitive blocks: rate limiters,
  // edge detectors, counters). Eight tuples each so stateful blocks get a
  // few steps of the same regime.
  constexpr std::size_t kTuples = 8;
  auto field_value = [&](std::size_t f, int which) {
    const FieldRange& r = options_.boundary_seed_ranges[f];
    if (which == 0) return r.lo;
    if (which == 1) return r.hi;
    return r.lo + 0.5 * (r.hi - r.lo);
  };
  for (int variant = 0; variant < 4; ++variant) {
    std::vector<std::uint8_t> data(kTuples * layout.tuple_size(), 0);
    for (std::size_t tuple = 0; tuple < kTuples; ++tuple) {
      for (std::size_t f = 0; f < layout.num_fields(); ++f) {
        if (f >= options_.boundary_seed_ranges.size() ||
            !options_.boundary_seed_ranges[f].active) {
          continue;
        }
        const int which = variant == 3 ? static_cast<int>(tuple % 2) : variant;
        const double v = field_value(f, which);
        const ir::DType t = layout.field_type(f);
        const std::size_t off = tuple * layout.tuple_size() + layout.field_offset(f);
        (ir::DTypeIsFloat(t) ? ir::Value::Real(t, v)
                             : ir::Value::Int(t, static_cast<std::int64_t>(v)))
            .ToBytes(data.data() + off);
      }
    }
    AdmitSeed(std::move(data), "boundary", tuple_size);
  }
}

bool Fuzzer::AllReachableCovered() const {
  if (options_.justifications == nullptr) return false;
  const int n = spec_->FuzzBranchCount();
  for (int slot = 0; slot < n; ++slot) {
    if (options_.justifications->SlotExcluded(slot)) continue;
    if (!sink_.total().Test(static_cast<std::size_t>(slot))) return false;
  }
  return true;
}

const std::vector<std::size_t>* Fuzzer::PickFocusFields() {
  focus_component_ = -1;
  const FocusPlan& plan = *options_.focus;
  if (focus_frontier_stale_) {
    // Frontier = uncovered, not analyzer-excluded, and actually influenced
    // by at least one inport field. Rebuilt only after coverage growth (or
    // Begin/resume), so the per-execution cost is an index rotation.
    focus_frontier_.clear();
    const int n = spec_->FuzzBranchCount();
    for (int slot = 0; slot < n && slot < static_cast<int>(plan.slot_fields.size()); ++slot) {
      if (sink_.total().Test(static_cast<std::size_t>(slot))) continue;
      if (options_.justifications != nullptr && options_.justifications->SlotExcluded(slot)) {
        continue;
      }
      if (plan.slot_fields[static_cast<std::size_t>(slot)].empty()) continue;
      focus_frontier_.push_back(slot);
    }
    focus_frontier_stale_ = false;
  }
  if (focus_frontier_.empty()) return nullptr;
  // Rotate through the frontier so one stubborn objective cannot starve the
  // rest. Pure function of the execution count: deterministic and stable
  // across checkpoint/resume.
  const std::uint64_t rotate = std::max<std::uint64_t>(plan.rotate_every, 1);
  const std::size_t idx = static_cast<std::size_t>((result_.executions / rotate) %
                                                   focus_frontier_.size());
  const int slot = focus_frontier_[idx];
  if (static_cast<std::size_t>(slot) < plan.slot_component.size()) {
    focus_component_ = plan.slot_component[static_cast<std::size_t>(slot)];
  }
  return &plan.slot_fields[static_cast<std::size_t>(slot)];
}

std::uint64_t Fuzzer::RunChunk(std::uint64_t until_executions) {
  assert(campaign_active_);
  if (campaign_done_) return result_.executions;
  const std::size_t tuple_size = std::max<std::size_t>(instrumented_->TupleSize(), 1);
  // Hoisted so the per-execution stamp is a null check when monitoring is
  // off (the --serve-off case pays nothing measurable).
  obs::CampaignStatusBoard* const board = options_.status_board;
  // Phase lap clock: one clock read per phase boundary, and none at all
  // unless the --profile timed mode is on (a disarmed lap is a null check).
  obs::PhaseLapTimer lap(options_.profile_timing ? &phase_profile_ : nullptr);

  while (true) {
    if (Elapsed() >= budget_.wall_seconds || result_.executions >= budget_.max_executions) {
      campaign_done_ = true;
      break;
    }
    // Early stop: the static analyzer justified every remaining uncovered
    // slot as unreachable — more executions cannot find new coverage.
    if (frontier_exhausted_) {
      campaign_done_ = true;
      break;
    }
    // Pathological campaign where every seed hung: nothing to mutate.
    if (corpus_.empty()) {
      campaign_done_ = true;
      break;
    }
    if (result_.executions >= until_executions) break;  // chunk boundary, not campaign end

    lap.Arm();
    const CorpusEntry& parent = corpus_.Pick(rng_);
    const std::vector<std::uint8_t>& partner =
        corpus_.size() > 1 ? corpus_.PickUniform(rng_).data : kEmptyInput;
    applied_.clear();
    // With --focus, the field-edit strategies target the frontier
    // objective's dependence slice; without it (focus == nullptr) this is a
    // no-op and the RNG schedule is bit-identical to pre-focus builds.
    const std::vector<std::size_t>* focus_fields =
        options_.focus != nullptr && options_.model_oriented ? PickFocusFields() : nullptr;
    std::vector<std::uint8_t> data =
        options_.model_oriented
            ? tuple_mutator_.Mutate(parent.data, partner, rng_, &cmp_trace_,
                                    track_strategies_ ? &applied_ : nullptr, focus_fields)
            : byte_mutator_.Mutate(parent.data, partner, rng_, &cmp_trace_);
    if (track_strategies_) strategy_stats_.CountApplied(applied_);
    lap.Lap(obs::ProfilePhase::kMutate);

    bool found_new = false;
    std::size_t new_slots = 0;
    std::size_t metric = 0;
    if (options_.model_oriented) {
      metric = IdcDensity(RunOneInstrumented(data, &found_new, &new_slots), data);
    } else {
      metric = RunOneEdges(data, &found_new);
      if (found_new && !last_input_hung_) MeasureOnInstrumented(data);
    }
    lap.Lap(obs::ProfilePhase::kExecute);
    const std::uint64_t signature = last_signature_;
    ++result_.executions;
    if (board != nullptr) board->StampWorker(options_.status_worker, result_.executions);

    if (last_input_hung_) {
      // Step-budget blowout: quarantine the input and move on (libFuzzer's
      // timeout-artifact handling). Coverage from the input's complete
      // iterations is kept in the frontier, but the input is neither
      // admitted nor exported as a test case — it wedges the model.
      QuarantineHang(data);
      lap.Lap(obs::ProfilePhase::kCoverageUpdate);
      continue;
    }

    if (options_.focus != nullptr && focus_component_ >= 0) {
      result_.focus_stats.EnsureSize(static_cast<std::size_t>(options_.focus->num_components));
      ++result_.focus_stats.executions[static_cast<std::size_t>(focus_component_)];
      if (found_new) {
        ++result_.focus_stats.credited[static_cast<std::size_t>(focus_component_)];
      }
    }
    if (found_new) {
      if (track_strategies_) strategy_stats_.CountCredited(applied_);
      result_.test_cases.push_back(
          TestCase{data, Elapsed(), new_slots, DecisionOutcomesCovered()});
      TraceNew(result_.test_cases.back(), metric, tuple_size);
      // Only new coverage can exhaust the frontier, so the scan stays off
      // the hot path.
      frontier_exhausted_ = AllReachableCovered();
      focus_frontier_stale_ = true;  // some frontier objective may be done
    }
    // Corpus policy (paper §3.2.2): keep inputs that trigger new coverage,
    // and inputs whose Iteration Difference Coverage beats what we've seen.
    const bool idc_interesting =
        options_.model_oriented && options_.use_idc_energy && metric > best_metric_;
    if (found_new || idc_interesting) {
      best_metric_ = std::max(best_metric_, metric);
      const std::string chain =
          options_.model_oriented ? StrategyChainString(applied_) : std::string("bytes");
      if (options_.provenance != nullptr) Attribute(Elapsed(), corpus_.next_id(), chain);
      CorpusEntry entry;
      entry.data = std::move(data);
      entry.metric = options_.use_idc_energy ? metric : 0;
      entry.new_slots = new_slots;
      entry.signature = signature;
      entry.parent_id = parent.id;
      entry.depth = parent.depth + 1;
      entry.chain = applied_;
      corpus_.Add(std::move(entry));
      TraceCorpus(chain);
    }
    lap.Lap(obs::ProfilePhase::kCoverageUpdate);
  }
  result_.model_iterations = model_iterations_;
  result_.measure_iterations = measure_iterations_;
  // Workers finish at different times; the stall watchdog exempts lanes
  // whose campaign is over (budget or frontier).
  if (board != nullptr && campaign_done_) {
    board->SetWorkerDone(options_.status_worker);
  }
  return result_.executions;
}

void Fuzzer::ImportEntry(const std::vector<std::uint8_t>& data, std::uint64_t signature) {
  assert(campaign_active_);
  // Replay the foreign input so the local sink and feedback maps absorb its
  // coverage; book the iterations as measurement (it is a re-run of work
  // another worker already paid for).
  const std::uint64_t before = model_iterations_;
  bool found_new = false;
  std::size_t new_slots = 0;
  std::size_t metric = 0;
  if (options_.model_oriented) {
    metric = IdcDensity(RunOneInstrumented(data, &found_new, &new_slots), data);
  } else {
    metric = RunOneEdges(data, &found_new);
    if (found_new) MeasureOnInstrumented(data);
  }
  measure_iterations_ += model_iterations_ - before;
  model_iterations_ = before;

  best_metric_ = std::max(best_metric_, options_.use_idc_energy ? metric : 0);
  CorpusEntry entry;
  entry.data = data;
  entry.metric = options_.use_idc_energy ? metric : 0;
  entry.new_slots = new_slots;
  entry.signature = signature;
  corpus_.Add(std::move(entry));
  TraceCorpus("import");
}

CampaignResult Fuzzer::Finish() {
  assert(campaign_active_);
  obs::PhaseLapTimer lap(options_.profile_timing ? &phase_profile_ : nullptr);
  lap.Arm();
  // Final MCDC sweep: independence pairs completed by inputs that were not
  // retained in the corpus (neither new coverage nor a better IDC score)
  // are attributed here, with entry id -1 / chain "unretained" — honest
  // bookkeeping for pairs no exported test case reproduces on its own.
  if (options_.provenance != nullptr) {
    const auto& evals = sink_.evals();
    for (std::size_t d = 0; d < evals.size(); ++d) {
      options_.provenance->AttributeMcdc(static_cast<coverage::DecisionId>(d), evals[d],
                                         result_.executions, Elapsed(), -1, "unretained");
    }
  }

  result_.elapsed_s = Elapsed();
  result_.model_iterations = model_iterations_;
  result_.measure_iterations = measure_iterations_;
  result_.report = coverage::ComputeReport(sink_, options_.justifications);
  result_.strategy_stats = strategy_stats_;
  // Determinism fingerprints: identical for an interrupted-and-resumed
  // campaign and an uninterrupted one (times are excluded by construction).
  result_.corpus_fingerprint = CorpusFingerprint(corpus_.entries());
  result_.coverage_fingerprint = CoverageFingerprint(sink_);
  lap.Lap(obs::ProfilePhase::kReport);
  FlushProfiles();
  result_.exec_profile = exec_profile_;
  result_.fuzz_exec_profile = fuzz_exec_profile_;
  result_.phase_profile = phase_profile_;
  campaign_active_ = false;
  campaign_done_ = true;
  if (options_.status_board != nullptr) {
    options_.status_board->SetWorkerDone(options_.status_worker);
  }
  return std::move(result_);
}

FuzzerState Fuzzer::SaveState() const {
  assert(campaign_active_);
  FuzzerState s;
  s.rng_state = rng_.GetState();
  s.executions = result_.executions;
  s.model_iterations = model_iterations_;
  s.measure_iterations = measure_iterations_;
  s.hangs = result_.hangs;
  s.elapsed_s = Elapsed();
  s.best_metric = best_metric_;
  s.frontier_exhausted = frontier_exhausted_;
  s.strategy_stats = strategy_stats_;
  s.corpus = corpus_.entries();
  s.test_cases = result_.test_cases;
  s.total_bits = sink_.total().size();
  s.total_words = sink_.total().words();
  s.evals.reserve(sink_.evals().size());
  for (const auto& set : sink_.evals()) {
    std::vector<std::uint64_t> sorted(set.begin(), set.end());
    std::sort(sorted.begin(), sorted.end());  // canonical on-disk order
    s.evals.push_back(std::move(sorted));
  }
  s.seen_eval_sizes.assign(seen_eval_sizes_.begin(), seen_eval_sizes_.end());
  s.edge_total = edge_total_;
  s.cmp_trace = cmp_trace_.Save();
  if (options_.provenance != nullptr) s.provenance_hits = options_.provenance->hits();
  if (options_.margins != nullptr) s.margins = options_.margins->distances();
  FlushProfiles();
  s.exec_profile = exec_profile_;
  s.fuzz_exec_profile = fuzz_exec_profile_;
  s.phase_profile = phase_profile_;
  return s;
}

std::uint64_t Fuzzer::spec_fingerprint() const { return SpecFingerprint(*spec_, *instrumented_); }

CampaignCheckpoint Fuzzer::MakeCheckpoint() const {
  CampaignCheckpoint ckpt = CheckpointHeader(options_, spec_fingerprint());
  ckpt.scanned = {0};
  ckpt.elapsed_s = Elapsed();
  ckpt.workers.push_back(SaveState());
  return ckpt;
}

void Fuzzer::RestoreFromState(const FuzzerState& state) {
  rng_.SetState(state.rng_state);
  result_.executions = state.executions;
  result_.test_cases = state.test_cases;
  result_.hangs = state.hangs;
  model_iterations_ = state.model_iterations;
  measure_iterations_ = state.measure_iterations;
  result_.model_iterations = model_iterations_;
  result_.measure_iterations = measure_iterations_;
  strategy_stats_ = state.strategy_stats;
  best_metric_ = state.best_metric;
  frontier_exhausted_ = state.frontier_exhausted;
  focus_frontier_stale_ = true;  // rebuilt from restored coverage on demand
  time_base_ = state.elapsed_s;
  corpus_.Restore(state.corpus);
  const bool sink_ok = state.total_bits == sink_.total().size() &&
                       sink_.RestoreCampaign(state.total_words, state.evals);
  assert(sink_ok && "checkpoint coverage shape mismatch (ValidateCheckpoint not run?)");
  (void)sink_ok;
  cmp_trace_.Restore(state.cmp_trace);
  edge_total_ = state.edge_total;
  if (!edge_total_.empty()) edge_curr_.assign(edge_total_.size(), 0);
  // Self-profile planes: the counters carry over so a resumed profile is
  // bit-identical. Each plane is empty or one counter per
  // instruction of the program it counts (CompiledModel::ValidateResumeProfile
  // is the caller-side gate); AttachTo sizes an empty one. The fuzz-only
  // plane is re-armed by the lazy fuzz-machine init.
  assert((state.exec_profile.insn_counts.empty() ||
          state.exec_profile.insn_counts.size() == instrumented_->code.size()) &&
         "checkpoint profile plane of another program (ValidateResumeProfile not run?)");
  FlushProfiles();  // pending counts belong to the planes being replaced
  exec_profile_ = state.exec_profile;
  exec_profile_.AttachTo(*instrumented_);
  fuzz_exec_profile_ = state.fuzz_exec_profile;
  phase_profile_ = state.phase_profile;
  // Best distances continue from the checkpoint (none if it was written
  // without a recorder; ValidateCheckpointShape gates the size).
  if (options_.margins != nullptr) options_.margins->MergeFrom(state.margins);
  if (options_.provenance != nullptr) {
    seen_eval_sizes_.assign(spec_->decisions().size(), 0);
    for (std::size_t d = 0; d < state.seen_eval_sizes.size() && d < seen_eval_sizes_.size();
         ++d) {
      seen_eval_sizes_[d] = static_cast<std::size_t>(state.seen_eval_sizes[d]);
    }
    // First hits recorded before the checkpoint, in discovery order (the
    // driver's closing `objective` events include them).
    for (const coverage::ObjectiveFirstHit& hit : state.provenance_hits) {
      options_.provenance->AbsorbHit(hit);
    }
  }
  // The frontier event fires when coverage grows past what was restored.
  last_frontier_ = sink_.total().Count();
}

void Fuzzer::QuarantineHang(const std::vector<std::uint8_t>& data) {
  ++result_.hangs;
  std::string file;
  if (!options_.hangs_dir.empty()) {
    // Content-hashed name: the same wedging input rediscovered (or re-hit
    // after a resume) maps to the same artifact, libFuzzer-style.
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint8_t b : data) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "hang-%016llx.bin", static_cast<unsigned long long>(h));
    if (support::EnsureDir(options_.hangs_dir).ok()) {
      file = options_.hangs_dir + "/" + name;
      const Status status = support::WriteFileAtomic(
          file, std::string_view(reinterpret_cast<const char*>(data.data()), data.size()));
      if (!status.ok()) {
        std::fprintf(stderr, "cftcg: hang artifact write failed: %s\n",
                     status.message().c_str());
        file.clear();
      }
    }
  }
  if (trace_ != nullptr) {
    obs::TraceEvent ev("hang");
    ev.F64("time_s", Elapsed()).U64("exec", result_.executions).U64("input_bytes", data.size());
    if (!file.empty()) ev.Str("file", file);
    trace_->Emit(ev);
  }
}

CampaignResult Fuzzer::Run(const FuzzBudget& budget) {
  Begin(budget);
  RunChunk(std::numeric_limits<std::uint64_t>::max());
  return Finish();
}

}  // namespace cftcg::fuzz
