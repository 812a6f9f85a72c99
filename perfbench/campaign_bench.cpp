// Campaign benchmark harness: time-to-coverage and throughput of real CFTCG
// campaigns on the eight Table 2 models, with a separate traced run that
// breaks the campaign down by layer.
//
// Every model is loaded from its models/*.cmx text through
// parser::LoadModel -> sched::AnalyzeAndSchedule -> codegen::LowerToBytecode.
// Every campaign has a fixed execution budget (FuzzBudget::max_executions;
// wall time is only a safety cap), so the work of a run is a function of the
// workload seed alone and only its speed varies.
//
// A run is made of *passes*: pass k runs campaign seed k (derived from
// --seed) on every model. The K distinct passes always run; an untraced run
// then repeats passes while --seconds allows, and every repeat must
// reproduce its first run exactly. Rates are medians over passes; coverage
// figures are means over the K seeds. Each campaign's generated suite is
// replayed through the reference sim::Interpreter and must reproduce the
// campaign's decision and condition coverage; the lane workloads also rerun
// seed 0 of every model on the other transport (threads vs forked processes)
// and require identical fingerprints.
//
// Output: a human-readable report, then one JSON line (the last line of
// stdout) with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit 0 only when every correctness check passed.
//
//   campaign_bench --workload roster-seq --seed 1 --seconds 10 --trace 0
//                  --models models --workdir .bench_build/perfbench-work
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codegen/lower.hpp"
#include "coverage/provenance.hpp"
#include "coverage/report.hpp"
#include "coverage/sink.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"
#include "obs/clock.hpp"
#include "obs/profiler.hpp"
#include "parser/model_io.hpp"
#include "sched/schedule.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "vm/cmp_trace.hpp"
#include "vm/machine.hpp"

namespace {

using namespace cftcg;
using obs::ProfilePhase;
using obs::Stopwatch;

// ---------------------------------------------------------------------------
// Workloads.

enum class Engine { kSequential, kThreaded, kIsolated };

struct Workload {
  const char* name;
  Engine engine;
  std::size_t max_tuples;       // FuzzerOptions::max_tuples
  std::uint64_t executions;     // per campaign
  int seeds_per_model;          // K: distinct campaigns per model, one per pass
};

constexpr Workload kWorkloads[] = {
    {"roster-seq", Engine::kSequential, 256, 3500, 20},
    {"roster-short", Engine::kSequential, 2, 10000, 64},
    {"lanes-threaded", Engine::kThreaded, 256, 12000, 10},
    {"lanes-isolated", Engine::kIsolated, 256, 12000, 10},
};

// The Table 2 roster, in the paper's order.
constexpr const char* kModels[] = {"SolarPV", "CPUTask", "AFC", "TCP",
                                   "RAC",     "EVCS",    "TWC", "UTPC"};
constexpr std::size_t kNumModels = sizeof(kModels) / sizeof(kModels[0]);

constexpr int kSetupRepsPerPass = 2;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t CampaignSeed(std::uint64_t seed, std::size_t model, int k) {
  return SplitMix(SplitMix(seed) ^ (static_cast<std::uint64_t>(model) << 32 |
                                    static_cast<std::uint64_t>(k)));
}

int LaneCount() {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus - 1, 1, 3);  // leave the coordinating thread a core
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and campaign id, kept in memory and
// written once at the end of a traced run.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int campaign = -1;
  bool folded = false;  // a program-reported total, not a timed interval
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  int Begin(const std::string& name, int parent = -1, int campaign = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, clock_.Elapsed(), 0, parent, campaign, false, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = clock_.Elapsed();
  }
  /// A child total reported by the program itself (phase time), laid out
  /// from the parent's start so self time = parent - children.
  void Fold(int parent, const std::string& name, double seconds) {
    if (parent < 0 || seconds <= 0) return;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back(Span{name, p.start, p.start + seconds, parent, p.campaign, true, {}});
  }
  void Count(int id, const std::string& name, double value) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].counts.emplace_back(name, value);
  }

  [[nodiscard]] std::string ToJson() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    struct Total {
      std::uint64_t n = 0;
      double total = 0;
      double self = 0;
    };
    std::map<std::string, Total> by_name;
    std::ostringstream o;
    o.precision(9);
    o << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self = (s.end - s.start) - child[i];
      Total& t = by_name[s.name];
      ++t.n;
      t.total += s.end - s.start;
      t.self += self;
      o << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end << ",\"self_s\":" << self
        << ",\"parent\":" << s.parent << ",\"campaign\":" << s.campaign
        << ",\"folded\":" << (s.folded ? "true" : "false");
      for (const auto& [k, v] : s.counts) o << ",\"" << k << "\":" << v;
      o << "}";
    }
    o << "],\n\"by_name\":{";
    bool first = true;
    for (const auto& [name, t] : by_name) {
      o << (first ? "\n" : ",\n") << "\"" << name << "\":{\"count\":" << t.n
        << ",\"total_s\":" << t.total << ",\"self_s\":" << t.self << "}";
      first = false;
    }
    o << "}}\n";
    return o.str();
  }

 private:
  bool on_;
  Stopwatch clock_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Set-up: model text -> ready to fuzz.

struct Loaded {
  std::unique_ptr<ir::Model> model;
  sched::ScheduledModel scheduled;
  vm::Program program;
};

struct SetupTimes {
  double parse = 0, schedule = 0, lower = 0, engine = 0;
  [[nodiscard]] double Total() const { return parse + schedule + lower + engine; }
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// parse -> schedule -> lower -> engine construction, each timed from
/// outside. Returns null (with `error`) if any stage fails.
std::unique_ptr<Loaded> SetUp(const std::string& text, Tracer& tr, SetupTimes* t,
                              std::string* error) {
  auto m = std::make_unique<Loaded>();
  const int root = tr.Begin("setup");
  Stopwatch w;
  int s = tr.Begin("parser.LoadModel", root);
  auto model = parser::LoadModel(text);
  tr.End(s);
  t->parse += w.Elapsed();
  if (!model.ok()) {
    *error = "parse: " + model.message();
    return nullptr;
  }
  m->model = model.take();
  w.Restart();
  s = tr.Begin("sched.AnalyzeAndSchedule", root);
  auto scheduled = sched::AnalyzeAndSchedule(*m->model);
  tr.End(s);
  t->schedule += w.Elapsed();
  if (!scheduled.ok()) {
    *error = "schedule: " + scheduled.message();
    return nullptr;
  }
  m->scheduled = scheduled.take();
  w.Restart();
  s = tr.Begin("codegen.LowerToBytecode", root);
  auto program = codegen::LowerToBytecode(m->scheduled, codegen::LoweringOptions{});
  tr.End(s);
  t->lower += w.Elapsed();
  if (!program.ok()) {
    *error = "lower: " + program.message();
    return nullptr;
  }
  m->program = program.take();
  w.Restart();
  s = tr.Begin("fuzz.Fuzzer", root);
  { fuzz::Fuzzer ready(m->program, m->scheduled.spec, fuzz::FuzzerOptions{}); }
  tr.End(s);
  t->engine += w.Elapsed();
  tr.End(root);
  return m;
}

// ---------------------------------------------------------------------------
// One campaign.

struct CampaignRecord {
  std::size_t model = 0;
  int k = 0;
  // Timed.
  double wall_s = 0;
  double time_to_cov_s = 0;
  // Deterministic.
  std::uint64_t executions = 0;
  std::uint64_t iterations = 0;
  std::uint64_t measure_iterations = 0;
  std::uint64_t execs_to_cov = 0;
  coverage::MetricReport report;
  std::uint64_t corpus_fp = 0, coverage_fp = 0, provenance_fp = 0;
  std::uint64_t corpus_entries = 0, test_cases = 0, hangs = 0;
  std::uint64_t dispatches = 0, steps = 0;
  std::uint64_t applied = 0, credited = 0;
  std::uint64_t rounds = 0, imports = 0;
  std::uint64_t crashes = 0, restarts = 0, lanes_retired = 0;
  obs::PhaseProfile phases;
  // Correctness.
  bool ok = true;
  std::string why;
  // Traced extras.
  double replay_s = 0;
  double ckpt_bytes = 0, ckpt_serialize_s = 0, ckpt_parse_s = 0;
  double pick_ns = 0;
  double vm_replay_iters = 0, vm_replay_s = 0;

  void Fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
  /// Everything a fixed seed and budget must reproduce exactly.
  [[nodiscard]] std::string Identity() const {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%016llx %016llx %016llx e%llu i%llu m%llu c%llu d%d/%d/%d t%llu x%llu",
                  static_cast<unsigned long long>(corpus_fp),
                  static_cast<unsigned long long>(coverage_fp),
                  static_cast<unsigned long long>(provenance_fp),
                  static_cast<unsigned long long>(executions),
                  static_cast<unsigned long long>(iterations),
                  static_cast<unsigned long long>(measure_iterations),
                  static_cast<unsigned long long>(execs_to_cov), report.outcome_covered,
                  report.condition_polarity_covered, report.mcdc_covered,
                  static_cast<unsigned long long>(test_cases),
                  static_cast<unsigned long long>(dispatches));
    return buf;
  }
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string models_dir = "models";
  std::string workdir = ".bench_build/perfbench-work";
  std::string details_path;
  std::uint64_t executions = 0;  // 0: the workload's budget
  int seeds_per_model = 0;       // 0: the workload's K
  int setup_reps = 20;           // set-ups before the first pass
  bool corrupt_replay = false;   // smoke test: the replay gate must catch this
};

/// Replays a generated suite through the reference interpreter; its decision
/// and condition slots must equal the campaign's, and its MCDC may not
/// exceed the campaign's.
void CheckReplay(const Loaded& m, const std::vector<fuzz::TestCase>& suite,
                 const coverage::ProvenanceMap& prov, CampaignRecord* r) {
  const coverage::CoverageSpec& spec = m.scheduled.spec;
  sim::Interpreter interp(m.scheduled, /*log_signals=*/false);
  coverage::CoverageSink sink(spec);
  const std::size_t tuple = std::max<std::size_t>(m.scheduled.TupleSize(), 1);
  Stopwatch w;
  for (const fuzz::TestCase& tc : suite) {
    interp.Reset();
    for (std::size_t off = 0; off + tuple <= tc.data.size(); off += tuple) {
      sink.BeginIteration();
      interp.SetInputsFromBytes(tc.data.data() + off);
      interp.Step(&sink);
      sink.AccumulateIteration();
    }
  }
  r->replay_s = w.Elapsed();
  const int outcomes = spec.num_outcome_slots();
  DynamicBitset campaign(static_cast<std::size_t>(spec.FuzzBranchCount()));
  for (const coverage::ObjectiveFirstHit& hit : prov.hits()) {
    if (hit.slot >= 0) campaign.Set(static_cast<std::size_t>(hit.slot));
  }
  int decision_diff = 0, condition_diff = 0;
  for (int slot = 0; slot < spec.FuzzBranchCount(); ++slot) {
    const auto i = static_cast<std::size_t>(slot);
    if (campaign.Test(i) != sink.total().Test(i)) {
      ++(slot < outcomes ? decision_diff : condition_diff);
    }
  }
  const coverage::MetricReport replay = coverage::ComputeReport(sink);
  if (decision_diff != 0 || replay.outcome_covered != r->report.outcome_covered) {
    r->Fail("replay decision slots differ (" + std::to_string(decision_diff) + ")");
  } else if (condition_diff != 0 ||
             replay.condition_polarity_covered != r->report.condition_polarity_covered) {
    r->Fail("replay condition slots differ (" + std::to_string(condition_diff) + ")");
  } else if (replay.mcdc_covered > r->report.mcdc_covered) {
    r->Fail("replay MCDC exceeds the campaign's");
  }
}

/// Outside timings over a campaign's final state: checkpoint encode/decode,
/// corpus picks, and VM steps over the final corpus with the count plane
/// attached (as campaigns run the machine).
void MeasureFinalState(const Loaded& m, const fuzz::CampaignCheckpoint& ckpt, std::uint64_t seed,
                       Tracer& tr, int parent, CampaignRecord* r) {
  int s = tr.Begin("fuzz.SerializeCheckpoint", parent, parent);
  Stopwatch w;
  const std::string bytes = fuzz::SerializeCheckpoint(ckpt);
  r->ckpt_serialize_s = w.Elapsed();
  tr.End(s);
  r->ckpt_bytes = static_cast<double>(bytes.size());
  s = tr.Begin("fuzz.ParseCheckpoint", parent, parent);
  w.Restart();
  auto parsed = fuzz::ParseCheckpoint(bytes);
  r->ckpt_parse_s = w.Elapsed();
  tr.End(s);
  if (!parsed.ok()) {
    r->Fail("checkpoint does not parse back: " + parsed.message());
    return;
  }
  if (ckpt.workers.empty() || ckpt.workers[0].corpus.empty()) return;

  fuzz::Corpus corpus;
  corpus.Restore(ckpt.workers[0].corpus);
  constexpr int kPicks = 20000;
  Rng rng(seed);
  std::int64_t sum = 0;
  s = tr.Begin("fuzz.Corpus::Pick", parent, parent);
  w.Restart();
  for (int i = 0; i < kPicks; ++i) sum += corpus.Pick(rng).id;
  r->pick_ns = w.Elapsed() * 1e9 / kPicks;
  tr.End(s);
  if (sum < 0) r->Fail("corpus pick out of range");

  vm::Machine machine(m.program);
  vm::CmpTrace cmp;
  vm::ExecProfile profile;
  profile.AttachTo(m.program);
  machine.set_profile(&profile);
  machine.set_cmp_trace(&cmp);
  machine.set_step_budget(fuzz::FuzzerOptions{}.step_budget);
  coverage::CoverageSink sink(m.scheduled.spec);
  const std::size_t tuple = std::max<std::size_t>(m.program.TupleSize(), 1);
  s = tr.Begin("vm.Machine::Step", parent, parent);
  w.Restart();
  std::uint64_t iters = 0;
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    const std::vector<std::uint8_t>& data = corpus.entry(e).data;
    machine.Reset();
    for (std::size_t off = 0; off + tuple <= data.size(); off += tuple) {
      sink.BeginIteration();
      machine.SetInputsFromBytes(data.data() + off);
      machine.Step(&sink);
      sink.AccumulateIteration();
      ++iters;
    }
  }
  r->vm_replay_s = w.Elapsed();
  r->vm_replay_iters = static_cast<double>(iters);
  tr.Count(s, "iterations", r->vm_replay_iters);
  tr.End(s);
}

std::uint64_t ExecsToCoverage(const coverage::ProvenanceMap& prov, int lanes) {
  // The execution index at which the final decision/condition coverage was
  // reached. Lanes count their own executions; in lockstep rounds the
  // campaign-wide count at that point is the lane index times the lanes.
  std::uint64_t last = 0;
  for (const coverage::ObjectiveFirstHit& hit : prov.hits()) {
    if (hit.slot >= 0) last = std::max(last, hit.iteration);
  }
  return last * static_cast<std::uint64_t>(lanes);
}

double LastTestCaseTime(const std::vector<fuzz::TestCase>& suite) {
  double t = 0;
  for (const fuzz::TestCase& tc : suite) t = std::max(t, tc.time_s);
  return t;
}

class CampaignRunner {
 public:
  CampaignRunner(const Options& opt, std::vector<std::unique_ptr<Loaded>>& models, Tracer& tr)
      : opt_(opt), models_(models), tr_(tr) {}

  CampaignRecord Run(std::size_t model, int k, Engine engine, bool traced, int campaign_id,
                     bool replay) {
    const Loaded& m = *models_[model];
    Tracer& tr = traced ? tr_ : off_;  // spans only around traced campaigns
    CampaignRecord r;
    r.model = model;
    r.k = k;
    const int lanes = engine == Engine::kSequential ? 1 : LaneCount();
    const std::uint64_t budget_execs =
        opt_.executions != 0 ? opt_.executions : opt_.workload->executions;

    coverage::ProvenanceMap prov(m.scheduled.spec);
    fuzz::FuzzerOptions fo;
    fo.seed = CampaignSeed(opt_.seed, model, k);
    fo.max_tuples = opt_.workload->max_tuples;
    fo.provenance = &prov;
    fo.profile_timing = traced;
    fuzz::FuzzBudget budget;
    budget.wall_seconds = 120;  // safety cap only: the budget is executions
    budget.max_executions = budget_execs;
    const std::string ckpt_path = opt_.workdir + "/campaign.ckpt";
    if (engine != Engine::kSequential) {
      std::remove(ckpt_path.c_str());
      fo.checkpoint_path = ckpt_path;
      fo.checkpoint_every = std::max<std::uint64_t>(budget_execs / 4, 1);
    }

    const int span = tr.Begin(std::string("campaign.") + kModels[model], -1, campaign_id);
    fuzz::CampaignResult result;
    std::unique_ptr<fuzz::CampaignCheckpoint> final_state;
    Stopwatch wall;
    if (engine == Engine::kSequential) {
      fuzz::Fuzzer fuzzer(m.program, m.scheduled.spec, fo);
      fuzzer.Begin(budget);
      fuzzer.RunChunk(UINT64_MAX);
      const double run_s = wall.Elapsed();
      if (traced) final_state = std::make_unique<fuzz::CampaignCheckpoint>(fuzzer.MakeCheckpoint());
      wall.Restart();
      result = fuzzer.Finish();
      r.wall_s = run_s + wall.Elapsed();
      r.corpus_entries = fuzzer.corpus().size();
    } else if (engine == Engine::kThreaded) {
      fuzz::ParallelOptions po;
      po.num_workers = lanes;
      fuzz::ParallelFuzzer fuzzer(m.program, m.scheduled.spec, fo, po);
      fuzz::ParallelCampaignResult pr = fuzzer.Run(budget);
      r.wall_s = wall.Elapsed();
      r.rounds = pr.rounds;
      r.imports = pr.imports;
      r.corpus_entries = pr.corpus_signatures.size();
      result = std::move(pr.merged);
    } else {
      fuzz::SupervisorOptions so;
      so.num_workers = lanes;
      fuzz::Supervisor sup(m.program, m.scheduled.spec, fo, so);
      fuzz::SupervisedCampaignResult sr = sup.Run(budget);
      r.wall_s = wall.Elapsed();
      r.rounds = sr.rounds;
      r.imports = sr.imports;
      r.corpus_entries = sr.corpus_signatures.size();
      r.crashes = sr.crashes;
      r.restarts = sr.restarts;
      r.lanes_retired = sr.lanes_retired;
      result = std::move(sr.merged);
    }
    tr.End(span);

    r.executions = result.executions;
    r.iterations = result.model_iterations;
    r.measure_iterations = result.measure_iterations;
    r.report = result.report;
    r.corpus_fp = result.corpus_fingerprint;
    r.coverage_fp = result.coverage_fingerprint;
    r.provenance_fp = fuzz::ProvenanceFingerprint(prov);
    r.test_cases = result.test_cases.size();
    r.hangs = result.hangs;
    r.dispatches = result.exec_profile.TotalDispatches();
    r.steps = result.exec_profile.steps;
    r.phases = result.phase_profile;
    for (std::size_t i = 0; i < result.strategy_stats.applied.size(); ++i) {
      r.applied += result.strategy_stats.applied[i];
      r.credited += result.strategy_stats.credited[i];
    }
    r.execs_to_cov = ExecsToCoverage(prov, lanes);
    r.time_to_cov_s = LastTestCaseTime(result.test_cases);

    if (result.executions != budget_execs) r.Fail("campaign stopped short of its budget");
    if (result.hangs != 0) r.Fail("campaign quarantined a hang");
    if (r.crashes != 0 || r.lanes_retired != 0) r.Fail("campaign lost a lane");

    if (traced) {
      tr.Count(span, "executions", static_cast<double>(r.executions));
      tr.Count(span, "iterations", static_cast<double>(r.iterations));
      tr.Count(span, "dispatches", static_cast<double>(r.dispatches));
      // Program-reported phase totals become child spans (mean lane for the
      // lane engines), so the campaign's self time is what no phase covers.
      for (int p = 0; p < obs::kNumProfilePhases; ++p) {
        tr.Fold(span, "phase." + std::string(obs::ProfilePhaseName(static_cast<ProfilePhase>(p))),
                 r.phases.seconds[static_cast<std::size_t>(p)] / lanes);
      }
      if (engine != Engine::kSequential) {
        std::string bytes;
        if (ReadFile(ckpt_path, &bytes)) {
          auto parsed = fuzz::ParseCheckpoint(bytes);
          if (parsed.ok()) final_state = std::make_unique<fuzz::CampaignCheckpoint>(parsed.take());
        }
        if (!final_state) r.Fail("no final checkpoint");
      }
      if (final_state) MeasureFinalState(m, *final_state, fo.seed, tr, span, &r);
    }

    if (replay) {
      std::vector<fuzz::TestCase> suite = std::move(result.test_cases);
      if (opt_.corrupt_replay && campaign_id == 0) suite.clear();
      const int s = tr.Begin("sim.Interpreter replay", -1, campaign_id);
      CheckReplay(m, suite, prov, &r);
      tr.End(s);
    }
    return r;
  }

 private:
  const Options& opt_;
  std::vector<std::unique_ptr<Loaded>>& models_;
  Tracer& tr_;
  Tracer off_{false};
};

// ---------------------------------------------------------------------------
// Statistics and output.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// One pass: campaign seed index k of every model, traced or not.
struct Pass {
  int k = 0;
  bool traced = false;
  bool first = false;  // first untraced pass of this seed index
  double wall_s = 0;
  std::vector<CampaignRecord> records;  // one per model, roster order
};

/// End-to-end metrics over the untraced passes. Rates are medians over
/// passes; the coverage figures are, per model, the mean over the K seeds
/// (bounded values, so the mean is steadier than the median), summed or
/// averaged over models.
std::vector<Metric> EndToEnd(const std::vector<Pass>& passes, int k_seeds) {
  std::vector<double> exec_rate, iter_rate;
  const auto per_seed = std::vector<std::vector<double>>(static_cast<std::size_t>(k_seeds));
  std::vector<std::vector<std::vector<double>>> ttc(kNumModels, per_seed);
  std::vector<double> etc(kNumModels, 0);
  double dpct = 0, cpct = 0, mpct = 0, firsts = 0;
  for (const Pass& p : passes) {
    if (p.traced) continue;
    double execs = 0, iters = 0;
    for (const CampaignRecord& r : p.records) {
      execs += static_cast<double>(r.executions);
      iters += static_cast<double>(r.iterations);
      ttc[r.model][static_cast<std::size_t>(p.k)].push_back(r.time_to_cov_s);
      if (!p.first) continue;
      etc[r.model] += static_cast<double>(r.execs_to_cov) / k_seeds;
      dpct += r.report.DecisionPct();
      cpct += r.report.ConditionPct();
      mpct += r.report.McdcPct();
      ++firsts;
    }
    exec_rate.push_back(execs / p.wall_s);
    iter_rate.push_back(iters / p.wall_s);
  }
  double ttc_sum = 0, etc_sum = 0;
  for (std::size_t mi = 0; mi < kNumModels; ++mi) {
    std::vector<double> seeds;  // a rerun seed contributes its median once
    for (const auto& runs : ttc[mi]) seeds.push_back(Median(runs));
    ttc_sum += Mean(seeds);
    etc_sum += etc[mi];
  }
  return {
      {"exec_per_s", "1/s", Median(exec_rate)},
      {"iters_per_s", "1/s", Median(iter_rate)},
      {"time_to_cov_s", "s", ttc_sum},
      {"execs_to_cov", "count", etc_sum},
      {"decision_pct", "%", dpct / firsts},
      {"condition_pct", "%", cpct / firsts},
      {"mcdc_pct", "%", mpct / firsts},
  };
}

/// Per-layer metrics over the traced passes: ratios of run totals, and
/// per-campaign means for times and sizes.
std::vector<Metric> PerLayer(const std::vector<Pass>& passes, int lanes) {
  double execs = 0, iters = 0, measure = 0, wall = 0, disp = 0, steps = 0, n = 0;
  double entries = 0, tcs = 0, applied = 0, credited = 0, rounds = 0, imports = 0;
  double crashes = 0, restarts = 0, retired = 0;
  double replay = 0, ck_bytes = 0, ck_ser = 0, ck_parse = 0, pick = 0;
  double vm_iters = 0, vm_s = 0;
  obs::PhaseProfile ph;
  for (const Pass& p : passes) {
    if (!p.traced) continue;
    for (const CampaignRecord& r : p.records) {
      ++n;
      execs += static_cast<double>(r.executions);
      iters += static_cast<double>(r.iterations);
      measure += static_cast<double>(r.measure_iterations);
      wall += r.wall_s;
      disp += static_cast<double>(r.dispatches);
      steps += static_cast<double>(r.steps);
      entries += static_cast<double>(r.corpus_entries);
      tcs += static_cast<double>(r.test_cases);
      applied += static_cast<double>(r.applied);
      credited += static_cast<double>(r.credited);
      rounds += static_cast<double>(r.rounds);
      imports += static_cast<double>(r.imports);
      crashes += static_cast<double>(r.crashes);
      restarts += static_cast<double>(r.restarts);
      retired += static_cast<double>(r.lanes_retired);
      replay += r.replay_s;
      ck_bytes += r.ckpt_bytes;
      ck_ser += r.ckpt_serialize_s;
      ck_parse += r.ckpt_parse_s;
      pick += r.pick_ns;
      vm_iters += r.vm_replay_iters;
      vm_s += r.vm_replay_s;
      ph.MergeFrom(r.phases);
    }
  }
  const auto sec = [&](ProfilePhase p) { return ph.seconds[static_cast<std::size_t>(p)]; };
  const double lane_time = wall * lanes;
  const double busy = sec(ProfilePhase::kMutate) + sec(ProfilePhase::kExecute) +
                      sec(ProfilePhase::kCoverageUpdate);
  const double idle = sec(ProfilePhase::kIdle);
  return {
      {"vm.dispatches_per_iter", "count", Ratio(disp, steps)},
      {"vm.iters_per_exec", "count", Ratio(iters, execs)},
      {"vm.ns_per_iter", "ns", Ratio(sec(ProfilePhase::kExecute) * 1e9, iters)},
      {"vm.replay_iters_per_s", "1/s", Ratio(vm_iters, vm_s)},
      {"mutator.ns_per_exec", "ns", Ratio(sec(ProfilePhase::kMutate) * 1e9, execs)},
      {"coverage.ns_per_exec", "ns", Ratio(sec(ProfilePhase::kCoverageUpdate) * 1e9, execs)},
      {"corpus.pick_ns", "ns", pick / n},
      {"fuzzer.glue_ns_per_exec", "ns", Ratio((lane_time - ph.Total()) * 1e9, execs)},
      {"corpus.entries", "count", entries / n},
      {"corpus.admit_ratio", "ratio", Ratio(entries, execs)},
      {"fuzzer.new_cov_ratio", "ratio", Ratio(tcs, execs)},
      {"mutator.credit_ratio", "ratio", Ratio(credited, applied)},
      {"parallel.idle_frac", "ratio", Ratio(idle, busy + idle)},
      {"parallel.sync_s", "s", sec(ProfilePhase::kCorpusSync) / n},
      {"parallel.rounds", "count", rounds / n},
      {"parallel.imports", "count", imports / n},
      {"parallel.import_iters", "count", measure / n},
      {"checkpoint.bytes", "B", ck_bytes / n},
      {"checkpoint.serialize_s", "s", ck_ser / n},
      {"checkpoint.parse_s", "s", ck_parse / n},
      {"checkpoint.write_s", "s", sec(ProfilePhase::kCheckpoint) / n},
      {"supervisor.crashes", "count", crashes},
      {"supervisor.restarts", "count", restarts},
      {"supervisor.lanes_retired", "count", retired},
      {"sim.replay_s", "s", replay / n},
  };
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return o + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

double PeakRssMb() {
  // Peak resident set of this process (VmHWM: unlike ru_maxrss it does not
  // carry over the launcher's peak across exec) plus the largest reaped
  // child (the forked lanes of the isolated engine).
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::atol(line.c_str() + 6);
  }
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self_kb + kids.ru_maxrss) / 1024.0;
}

int Usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: campaign_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--models DIR] [--workdir DIR] [--details FILE] [--execs N] "
               "[--seeds-per-model K] [--setup-reps R] [--corrupt-replay]\nworkloads:",
               msg.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      const std::string name = next();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(next().c_str());
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--models") {
      opt.models_dir = next();
    } else if (a == "--workdir") {
      opt.workdir = next();
    } else if (a == "--details") {
      opt.details_path = next();
    } else if (a == "--execs") {
      opt.executions = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seeds-per-model") {
      opt.seeds_per_model = std::atoi(next().c_str());
    } else if (a == "--setup-reps") {
      opt.setup_reps = std::max(1, std::atoi(next().c_str()));
    } else if (a == "--corrupt-replay") {
      opt.corrupt_replay = true;
    } else {
      return Usage("unknown argument " + a);
    }
  }
  if (opt.workload == nullptr) return Usage("missing or unknown --workload");
  const Workload& wl = *opt.workload;
  const int k_seeds = opt.seeds_per_model > 0 ? opt.seeds_per_model : wl.seeds_per_model;
  const int lanes = wl.engine == Engine::kSequential ? 1 : LaneCount();
  Tracer tr(opt.trace);
  const Stopwatch run_clock;

  // -- Set-up, repeated: model text -> ready to fuzz, summed over models.
  std::vector<std::string> texts(kNumModels);
  for (std::size_t i = 0; i < kNumModels; ++i) {
    const std::string path = opt.models_dir + "/" + kModels[i] + ".cmx";
    if (!ReadFile(path, &texts[i])) {
      std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
      return 2;
    }
  }
  std::vector<std::unique_ptr<Loaded>> models(kNumModels);
  std::vector<double> setup_total, setup_parse, setup_sched, setup_lower;
  std::vector<std::vector<double>> setup_model(kNumModels);
  // One set-up of every model. It runs opt.setup_reps times before the
  // first pass and kSetupRepsPerPass times after every pass, so the median
  // covers the whole run rather than one moment of it. The first result of
  // each model is the one the campaigns use.
  const auto set_up_all = [&]() {
    SetupTimes sum;
    for (std::size_t i = 0; i < kNumModels; ++i) {
      SetupTimes one;
      std::string error;
      std::unique_ptr<Loaded> m = SetUp(texts[i], tr, &one, &error);
      if (!m) {
        std::fprintf(stderr, "error: %s: %s\n", kModels[i], error.c_str());
        return false;
      }
      if (!models[i]) models[i] = std::move(m);
      setup_model[i].push_back(one.Total());
      sum.parse += one.parse;
      sum.schedule += one.schedule;
      sum.lower += one.lower;
      sum.engine += one.engine;
    }
    setup_total.push_back(sum.Total());
    setup_parse.push_back(sum.parse);
    setup_sched.push_back(sum.schedule);
    setup_lower.push_back(sum.lower);
    return true;
  };
  for (int rep = 0; rep < opt.setup_reps; ++rep) {
    if (!set_up_all()) return 2;
  }
  const double setup_elapsed = run_clock.Elapsed();

  // -- Passes. Pass k runs campaign seed k of every model; the first K
  // passes are the run's distinct campaigns and must all complete. An
  // untraced run then reruns seeds from 0 while time is left (each rerun
  // must reproduce its first pass exactly); a traced run follows every
  // untraced pass with a traced pass of the same seed instead, so the
  // tracing overhead is measured on the same work.
  CampaignRunner runner(opt, models, tr);
  std::vector<Pass> passes;
  std::vector<std::string> identity(kNumModels * static_cast<std::size_t>(k_seeds));
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto book = [&](const CampaignRecord& r) {
    ++attempted;
    if (r.ok) return;
    ++failed;
    failures.push_back(std::string(kModels[r.model]) + " k=" + std::to_string(r.k) + ": " + r.why);
  };
  const Stopwatch timed;
  double last_step_s = 0;
  int campaign_id = 0;
  for (int step = 0;; ++step) {
    if (step >= k_seeds && (opt.trace || timed.Elapsed() + last_step_s > opt.seconds)) break;
    const int k = step % k_seeds;
    const Stopwatch step_clock;
    for (int t = 0; t < (opt.trace ? 2 : 1); ++t) {
      Pass pass;
      pass.k = k;
      pass.traced = t == 1;
      pass.first = step < k_seeds && !pass.traced;
      for (std::size_t mi = 0; mi < kNumModels; ++mi) {
        CampaignRecord r = runner.Run(mi, k, wl.engine, pass.traced, campaign_id++,
                                      /*replay=*/pass.first || pass.traced);
        std::string& id =
            identity[mi * static_cast<std::size_t>(k_seeds) + static_cast<std::size_t>(k)];
        if (id.empty()) {
          id = r.Identity();
        } else if (id != r.Identity()) {
          r.Fail(std::string(pass.traced ? "traced" : "repeated") +
                 " campaign did not reproduce the first run of its seed");
        }
        book(r);
        pass.wall_s += r.wall_s;
        pass.records.push_back(std::move(r));
      }
      passes.push_back(std::move(pass));
    }
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      if (!set_up_all()) return 2;
    }
    last_step_s = step_clock.Elapsed();
  }
  const double peak_rss = PeakRssMb();

  // -- Lane workloads: the other transport must reproduce seed 0 of every
  // model bit for bit.
  std::vector<std::string> cross;
  if (wl.engine != Engine::kSequential) {
    const Engine other = wl.engine == Engine::kThreaded ? Engine::kIsolated : Engine::kThreaded;
    for (std::size_t mi = 0; mi < kNumModels; ++mi) {
      CampaignRecord r = runner.Run(mi, 0, other, false, campaign_id++, false);
      const CampaignRecord& mine = passes[0].records[mi];
      if (r.corpus_fp != mine.corpus_fp || r.coverage_fp != mine.coverage_fp ||
          r.provenance_fp != mine.provenance_fp) {
        r.Fail("threaded and isolated fingerprints differ");
      }
      cross.push_back(std::string(kModels[mi]) + (r.ok ? " identical" : " " + r.why));
      book(r);
    }
  }

  std::vector<Metric> e2e = {{"setup_s", "s", Median(setup_total)}};
  for (Metric& m : EndToEnd(passes, k_seeds)) e2e.push_back(std::move(m));
  e2e.push_back({"peak_rss_mb", "MB", peak_rss});
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);

  double insns = 0;
  for (const auto& m : models) insns += static_cast<double>(m->program.code.size());
  std::vector<Metric> layers = {
      {"parser.load_s", "s", Median(setup_parse)},
      {"sched.schedule_s", "s", Median(setup_sched)},
      {"codegen.lower_s", "s", Median(setup_lower)},
      {"codegen.insns", "count", insns},
  };
  if (opt.trace) {
    for (Metric& m : PerLayer(passes, lanes)) layers.push_back(std::move(m));
    double traced = 0, untraced = 0;
    for (const Pass& p : passes) (p.traced ? traced : untraced) += p.wall_s;
    layers.push_back({"obs.trace_overhead_frac", "ratio", traced / untraced - 1});
  }

  // -- Report: one row per model beside the workload's numbers.
  std::printf("workload %s  seed %llu  lanes %d  seeds/model %d  passes %zu  "
              "executions/campaign %llu\n",
              wl.name, static_cast<unsigned long long>(opt.seed), lanes, k_seeds, passes.size(),
              static_cast<unsigned long long>(opt.executions ? opt.executions : wl.executions));
  std::printf("%-8s %9s %11s %12s %10s %12s %7s %7s %7s\n", "model", "setup_ms", "exec/s",
              "iters/s", "ttc_s", "execs_to_cov", "D%", "C%", "MCDC%");
  for (std::size_t mi = 0; mi < kNumModels; ++mi) {
    double wall = 0, ex = 0, it = 0;
    std::vector<double> ttc, etc, d, c, mc;
    for (const Pass& p : passes) {
      if (!p.first) continue;
      const CampaignRecord& r = p.records[mi];
      wall += r.wall_s;
      ex += static_cast<double>(r.executions);
      it += static_cast<double>(r.iterations);
      ttc.push_back(r.time_to_cov_s);
      etc.push_back(static_cast<double>(r.execs_to_cov));
      d.push_back(r.report.DecisionPct());
      c.push_back(r.report.ConditionPct());
      mc.push_back(r.report.McdcPct());
    }
    std::printf("%-8s %9.3f %11.0f %12.0f %10.4f %12.0f %7.2f %7.2f %7.2f\n", kModels[mi],
                Median(setup_model[mi]) * 1e3, ex / wall, it / wall, Mean(ttc), Mean(etc),
                Mean(d), Mean(c), Mean(mc));
  }
  std::printf("pass exec/s:");
  for (const Pass& p : passes) {
    double ex = 0;
    for (const CampaignRecord& r : p.records) ex += static_cast<double>(r.executions);
    std::printf(" %.0f%s", ex / p.wall_s, p.traced ? "t" : "");
  }
  std::printf("\n");
  PrintMetrics("end-to-end (untraced passes):", e2e);
  std::printf("  %-26s %16.6g %s\n", "failed_frac", failed_frac, "ratio");
  if (opt.trace) PrintMetrics("per-layer (traced passes):", layers);
  for (const std::string& c : cross) std::printf("cross-transport: %s\n", c.c_str());
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("set-up %.2fs, run %.2fs\n", setup_elapsed, run_clock.Elapsed());

  if (opt.trace) {
    const std::string path =
        opt.workdir + "/spans-" + wl.name + "-" + std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    out << tr.ToJson();
    std::printf("spans: %s\n", path.c_str());
  }
  if (!opt.details_path.empty()) {
    // Machine-readable details for the smoke test: every metric, and each
    // distinct campaign's deterministic identity.
    std::ofstream out(opt.details_path);
    out << "{\"workload\": \"" << wl.name << "\", \"seed\": " << opt.seed
        << ", \"end_to_end\": " << MetricsJson(e2e) << ", \"per_layer\": " << MetricsJson(layers)
        << ", \"failed_frac\": " << Num(failed_frac) << ", \"campaigns\": [";
    bool first = true;
    for (const Pass& p : passes) {
      if (!p.first) continue;
      for (const CampaignRecord& r : p.records) {
        out << (first ? "" : ", ") << "{\"model\": \"" << kModels[r.model] << "\", \"k\": " << r.k
            << ", \"wall_s\": " << Num(r.wall_s) << ", \"time_to_cov_s\": "
            << Num(r.time_to_cov_s) << ", \"execs_to_cov\": " << r.execs_to_cov
            << ", \"identity\": \"" << r.Identity() << "\"}";
        first = false;
      }
    }
    out << "]}\n";
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(opt.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}
