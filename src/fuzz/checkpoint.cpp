#include "fuzz/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "support/atomic_file.hpp"

namespace cftcg::fuzz {

using wire::Reader;
using wire::Writer;

namespace {

constexpr char kMagic[8] = {'C', 'F', 'T', 'G', 'C', 'K', 'P', '\0'};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

inline std::uint64_t MixBytes(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) h = Mix(h, p[i]);
  return h;
}

inline std::uint64_t MixStr(std::uint64_t h, std::string_view s) {
  h = Mix(h, s.size());
  return MixBytes(h, s.data(), s.size());
}

}  // namespace

void AppendFuzzerState(wire::Writer& w, const FuzzerState& s) {
  for (std::uint64_t word : s.rng_state) w.U64(word);
  w.U64(s.executions);
  w.U64(s.model_iterations);
  w.U64(s.measure_iterations);
  w.U64(s.hangs);
  w.F64(s.elapsed_s);
  w.U64(s.best_metric);
  w.U8(s.frontier_exhausted ? 1 : 0);
  w.U32(static_cast<std::uint32_t>(kNumMutationStrategies));
  for (std::uint64_t v : s.strategy_stats.applied) w.U64(v);
  for (std::uint64_t v : s.strategy_stats.credited) w.U64(v);
  w.U64(s.corpus.size());
  for (const CorpusEntry& e : s.corpus) {
    w.Bytes(e.data);
    w.U64(e.metric);
    w.U64(e.new_slots);
    w.U64(e.signature);
    w.I64(e.id);
    w.I64(e.parent_id);
    w.U32(e.depth);
    w.U32(static_cast<std::uint32_t>(e.chain.size()));
    for (MutationStrategy strat : e.chain) w.U8(static_cast<std::uint8_t>(strat));
  }
  w.U64(s.test_cases.size());
  for (const TestCase& tc : s.test_cases) {
    w.Bytes(tc.data);
    w.F64(tc.time_s);
    w.U64(tc.new_slots);
    w.I64(tc.decision_outcomes_covered);
  }
  w.U64(s.total_bits);
  w.U64Vec(s.total_words);
  w.U64(s.evals.size());
  for (const auto& set : s.evals) w.U64Vec(set);
  w.U64Vec(s.seen_eval_sizes);
  w.Bytes(s.edge_total);
  for (std::int64_t v : s.cmp_trace.ints) w.I64(v);
  for (double v : s.cmp_trace.doubles) w.F64(v);
  w.U64(s.cmp_trace.int_idx);
  w.U64(s.cmp_trace.int_count);
  w.U64(s.cmp_trace.double_idx);
  w.U64(s.cmp_trace.double_count);
  w.U64(s.provenance_hits.size());
  for (const coverage::ObjectiveFirstHit& h : s.provenance_hits) {
    w.U8(static_cast<std::uint8_t>(h.kind));
    w.Str(h.name);
    w.I64(h.decision);
    w.I64(h.condition);
    w.I64(h.outcome);
    w.I64(h.slot);
    w.U64(h.iteration);
    w.F64(h.time_s);
    w.I64(h.entry_id);
    w.Str(h.chain);
  }
  // v2: self-profile planes.
  for (const vm::ExecProfile* p : {&s.exec_profile, &s.fuzz_exec_profile}) {
    w.U64Vec(p->insn_counts);
    w.U64(p->steps);
  }
  w.U32(static_cast<std::uint32_t>(obs::kNumProfilePhases));
  for (int i = 0; i < obs::kNumProfilePhases; ++i) {
    w.F64(s.phase_profile.seconds[static_cast<std::size_t>(i)]);
    w.U64(s.phase_profile.laps[static_cast<std::size_t>(i)]);
  }
  w.F64Vec(s.margins);  // v3
}

bool ReadFuzzerState(wire::Reader& r, FuzzerState& s, std::uint32_t version) {
  for (std::uint64_t& word : s.rng_state) word = r.U64();
  s.executions = r.U64();
  s.model_iterations = r.U64();
  s.measure_iterations = r.U64();
  s.hangs = r.U64();
  s.elapsed_s = r.F64();
  s.best_metric = r.U64();
  s.frontier_exhausted = r.U8() != 0;
  if (r.U32() != static_cast<std::uint32_t>(kNumMutationStrategies)) return false;
  for (std::uint64_t& v : s.strategy_stats.applied) v = r.U64();
  for (std::uint64_t& v : s.strategy_stats.credited) v = r.U64();
  const std::uint64_t corpus_size = r.U64();
  for (std::uint64_t i = 0; i < corpus_size && !r.failed(); ++i) {
    CorpusEntry e;
    e.data = r.Bytes();
    e.metric = r.U64();
    e.new_slots = r.U64();
    e.signature = r.U64();
    e.id = r.I64();
    e.parent_id = r.I64();
    e.depth = r.U32();
    const std::uint32_t chain = r.U32();
    for (std::uint32_t k = 0; k < chain && !r.failed(); ++k) {
      const std::uint8_t strat = r.U8();
      if (strat >= static_cast<std::uint8_t>(kNumMutationStrategies)) return false;
      e.chain.push_back(static_cast<MutationStrategy>(strat));
    }
    s.corpus.push_back(std::move(e));
  }
  const std::uint64_t num_cases = r.U64();
  for (std::uint64_t i = 0; i < num_cases && !r.failed(); ++i) {
    TestCase tc;
    tc.data = r.Bytes();
    tc.time_s = r.F64();
    tc.new_slots = r.U64();
    tc.decision_outcomes_covered = static_cast<int>(r.I64());
    s.test_cases.push_back(std::move(tc));
  }
  s.total_bits = r.U64();
  s.total_words = r.U64Vec();
  const std::uint64_t num_decisions = r.U64();
  for (std::uint64_t d = 0; d < num_decisions && !r.failed(); ++d) {
    s.evals.push_back(r.U64Vec());
  }
  s.seen_eval_sizes = r.U64Vec();
  s.edge_total = r.Bytes();
  for (std::int64_t& v : s.cmp_trace.ints) v = r.I64();
  for (double& v : s.cmp_trace.doubles) v = r.F64();
  s.cmp_trace.int_idx = r.U64();
  s.cmp_trace.int_count = r.U64();
  s.cmp_trace.double_idx = r.U64();
  s.cmp_trace.double_count = r.U64();
  const std::uint64_t num_hits = r.U64();
  bool bad_hit_kind = false;
  for (std::uint64_t i = 0; i < num_hits && !r.failed(); ++i) {
    coverage::ObjectiveFirstHit h;
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(coverage::ObjectiveKind::kMcdcPair)) {
      bad_hit_kind = true;  // bit-flipped kind: reject instead of misparsing
    }
    h.kind = static_cast<coverage::ObjectiveKind>(kind);
    h.name = r.Str();
    h.decision = static_cast<coverage::DecisionId>(r.I64());
    h.condition = static_cast<coverage::ConditionId>(r.I64());
    h.outcome = static_cast<int>(r.I64());
    h.slot = static_cast<int>(r.I64());
    h.iteration = r.U64();
    h.time_s = r.F64();
    h.entry_id = r.I64();
    h.chain = r.Str();
    s.provenance_hits.push_back(std::move(h));
  }
  if (bad_hit_kind) return false;
  for (vm::ExecProfile* p : {&s.exec_profile, &s.fuzz_exec_profile}) {
    p->insn_counts = r.U64Vec();
    // v3 also carried the dispatch strobe: a sample vector after the counts
    // and a countdown after the steps, both read and discarded.
    if (version == 3) (void)r.U64Vec();
    p->steps = r.U64();
    if (version == 3) (void)r.U64();
  }
  if (r.U32() != static_cast<std::uint32_t>(obs::kNumProfilePhases)) return false;
  for (int i = 0; i < obs::kNumProfilePhases; ++i) {
    s.phase_profile.seconds[static_cast<std::size_t>(i)] = r.F64();
    s.phase_profile.laps[static_cast<std::size_t>(i)] = r.U64();
  }
  s.margins = r.F64Vec();
  return !r.failed();
}

std::uint64_t SpecFingerprint(const coverage::CoverageSpec& spec, const vm::Program& program) {
  std::uint64_t h = kFnvOffset;
  h = Mix(h, static_cast<std::uint64_t>(spec.FuzzBranchCount()));
  h = Mix(h, static_cast<std::uint64_t>(spec.num_outcome_slots()));
  h = Mix(h, spec.decisions().size());
  h = Mix(h, spec.conditions().size());
  for (const coverage::Decision& d : spec.decisions()) {
    h = MixStr(h, d.name);
    h = Mix(h, static_cast<std::uint64_t>(d.num_outcomes));
    h = Mix(h, d.conditions.size());
  }
  h = Mix(h, program.TupleSize());
  h = Mix(h, program.input_types.size());
  return h;
}

std::string SerializeCheckpoint(const CampaignCheckpoint& ckpt) {
  Writer w;
  for (char c : kMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(ckpt.version);
  w.U64(ckpt.spec_fingerprint);
  w.U64(ckpt.seed);
  w.U8(ckpt.model_oriented ? 1 : 0);
  w.U8(ckpt.use_idc_energy ? 1 : 0);
  w.U8(ckpt.analyzed ? 1 : 0);
  w.U64(ckpt.max_tuples);
  w.U64(ckpt.step_budget);
  w.U32(ckpt.num_workers);
  w.U64(ckpt.sync_every);
  w.U64(ckpt.rounds);
  w.U64(ckpt.imports);
  w.U64Vec(ckpt.seen_signatures);
  w.U64Vec(ckpt.scanned);
  w.F64(ckpt.elapsed_s);
  w.U64(ckpt.workers.size());
  for (const FuzzerState& s : ckpt.workers) AppendFuzzerState(w, s);
  return w.take();
}

Result<CampaignCheckpoint> ParseCheckpoint(std::string_view bytes) {
  Reader r(bytes);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(r.U8());
  if (r.failed() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("not a CFTCG checkpoint (bad magic)");
  }
  CampaignCheckpoint ckpt;
  ckpt.version = r.U32();
  if (ckpt.version != kCheckpointVersion && ckpt.version != kOldestCheckpointVersion) {
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  "checkpoint version %u is not supported (this build reads versions %u and %u)",
                  ckpt.version, kOldestCheckpointVersion, kCheckpointVersion);
    return Status::Error(buf);
  }
  ckpt.spec_fingerprint = r.U64();
  ckpt.seed = r.U64();
  ckpt.model_oriented = r.U8() != 0;
  ckpt.use_idc_energy = r.U8() != 0;
  ckpt.analyzed = r.U8() != 0;
  ckpt.max_tuples = r.U64();
  ckpt.step_budget = r.U64();
  ckpt.num_workers = r.U32();
  ckpt.sync_every = r.U64();
  ckpt.rounds = r.U64();
  ckpt.imports = r.U64();
  if (r.failed()) {
    return Status::Error("corrupt checkpoint: header truncated at byte " +
                         std::to_string(r.pos()));
  }
  ckpt.seen_signatures = r.U64Vec();
  ckpt.scanned = r.U64Vec();
  if (r.failed()) {
    return Status::Error("corrupt checkpoint: a driver table declares more entries than the "
                         "file holds");
  }
  ckpt.elapsed_s = r.F64();
  const std::uint64_t num_workers = r.U64();
  if (r.failed() || num_workers != ckpt.num_workers || num_workers == 0 ||
      num_workers > 4096) {
    return Status::Error("corrupt checkpoint: inconsistent worker count");
  }
  for (std::uint64_t i = 0; i < num_workers; ++i) {
    FuzzerState s;
    if (!ReadFuzzerState(r, s, ckpt.version)) {
      return Status::Error("corrupt checkpoint: truncated at byte " + std::to_string(r.pos()));
    }
    ckpt.workers.push_back(std::move(s));
  }
  if (!r.AtEnd()) {
    return Status::Error("corrupt checkpoint: " +
                         std::to_string(bytes.size() - r.pos()) + " trailing byte(s)");
  }
  return ckpt;
}

Status WriteCheckpointFile(const std::string& path, const CampaignCheckpoint& ckpt) {
  return support::WriteFileAtomic(path, SerializeCheckpoint(ckpt));
}

Result<CampaignCheckpoint> ReadCheckpointFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::Error("cannot open checkpoint " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  Result<CampaignCheckpoint> parsed = ParseCheckpoint(bytes);
  if (!parsed.ok()) return Status::Error(path + ": " + parsed.message());
  return parsed;
}

CampaignCheckpoint CheckpointHeader(const FuzzerOptions& options,
                                    std::uint64_t spec_fingerprint) {
  CampaignCheckpoint ckpt;
  ckpt.spec_fingerprint = spec_fingerprint;
  ckpt.seed = options.seed;
  ckpt.model_oriented = options.model_oriented;
  ckpt.use_idc_energy = options.use_idc_energy;
  ckpt.analyzed = options.justifications != nullptr;
  ckpt.max_tuples = options.max_tuples;
  ckpt.step_budget = options.step_budget;
  return ckpt;
}

Status ValidateCheckpoint(const CampaignCheckpoint& ckpt, const FuzzerOptions& options,
                          std::uint32_t num_workers, std::uint64_t spec_fingerprint) {
  if (ckpt.spec_fingerprint != spec_fingerprint) {
    return Status::Error("checkpoint was taken against a different model (fingerprint mismatch)");
  }
  if (ckpt.seed != options.seed) {
    return Status::Error("checkpoint seed " + std::to_string(ckpt.seed) +
                         " does not match campaign seed " + std::to_string(options.seed));
  }
  if (ckpt.model_oriented != options.model_oriented) {
    return Status::Error("checkpoint mode (cftcg/fuzz-only) does not match the campaign");
  }
  if (ckpt.use_idc_energy != options.use_idc_energy) {
    return Status::Error("checkpoint IDC-energy setting does not match the campaign");
  }
  if (ckpt.max_tuples != options.max_tuples) {
    return Status::Error("checkpoint max_tuples does not match the campaign");
  }
  if (ckpt.num_workers != num_workers) {
    return Status::Error("checkpoint has " + std::to_string(ckpt.num_workers) +
                         " worker stream(s); the campaign was configured with " +
                         std::to_string(num_workers));
  }
  if (ckpt.workers.size() != ckpt.num_workers || ckpt.scanned.size() != ckpt.num_workers) {
    return Status::Error("corrupt checkpoint: worker table size mismatch");
  }
  if (ckpt.num_workers > 1 && ckpt.sync_every == 0) {
    return Status::Error("corrupt checkpoint: " + std::to_string(ckpt.num_workers) +
                         " worker streams without a round size (sync_every 0)");
  }
  return Status::Ok();
}

Status ValidateCheckpointShape(const CampaignCheckpoint& ckpt, std::uint64_t total_bits,
                               std::size_t num_decisions, std::size_t num_outcomes) {
  const std::uint64_t words = (total_bits + 63) / 64;
  for (std::size_t i = 0; i < ckpt.workers.size(); ++i) {
    const FuzzerState& s = ckpt.workers[i];
    const std::string who = "worker " + std::to_string(i);
    if (s.total_bits != total_bits) {
      return Status::Error("corrupt checkpoint: " + who + " coverage universe has " +
                           std::to_string(s.total_bits) + " bit(s), expected " +
                           std::to_string(total_bits));
    }
    if (s.total_words.size() != words) {
      return Status::Error("corrupt checkpoint: " + who + " bitmap has " +
                           std::to_string(s.total_words.size()) + " word(s), expected " +
                           std::to_string(words));
    }
    if (s.evals.size() != num_decisions) {
      return Status::Error("corrupt checkpoint: " + who + " has MCDC sets for " +
                           std::to_string(s.evals.size()) + " decision(s), expected " +
                           std::to_string(num_decisions));
    }
    if (!s.seen_eval_sizes.empty() && s.seen_eval_sizes.size() != num_decisions) {
      return Status::Error("corrupt checkpoint: " + who + " eval-size table has " +
                           std::to_string(s.seen_eval_sizes.size()) + " entr(ies), expected " +
                           std::to_string(num_decisions));
    }
    if (!s.margins.empty() && s.margins.size() != num_outcomes) {
      return Status::Error("corrupt checkpoint: " + who + " margin table has " +
                           std::to_string(s.margins.size()) + " distance(s), expected " +
                           std::to_string(num_outcomes));
    }
  }
  return Status::Ok();
}

std::uint64_t CorpusFingerprint(const std::vector<CorpusEntry>& entries) {
  std::uint64_t h = kFnvOffset;
  h = Mix(h, entries.size());
  for (const CorpusEntry& e : entries) {
    h = Mix(h, e.data.size());
    h = MixBytes(h, e.data.data(), e.data.size());
    h = Mix(h, e.metric);
    h = Mix(h, e.new_slots);
    h = Mix(h, static_cast<std::uint64_t>(e.id));
    h = Mix(h, static_cast<std::uint64_t>(e.parent_id));
    h = Mix(h, e.depth);
    for (MutationStrategy s : e.chain) h = Mix(h, static_cast<std::uint64_t>(s));
  }
  return h;
}

std::uint64_t CoverageFingerprint(const coverage::CoverageSink& sink) {
  std::uint64_t h = kFnvOffset;
  h = Mix(h, sink.total().size());
  for (std::uint64_t word : sink.total().words()) h = Mix(h, word);
  for (const auto& set : sink.evals()) {
    std::vector<std::uint64_t> sorted(set.begin(), set.end());
    std::sort(sorted.begin(), sorted.end());
    h = Mix(h, sorted.size());
    for (std::uint64_t e : sorted) h = Mix(h, e);
  }
  return h;
}

std::uint64_t ProvenanceFingerprint(const coverage::ProvenanceMap& provenance) {
  // Hash an order-insensitive digest of the attributions: the first-hit set
  // is identical between an interrupted-and-resumed campaign and an
  // uninterrupted one, but wall-clock times are not — so time_s is excluded.
  std::uint64_t h = kFnvOffset;
  h = Mix(h, provenance.num_objectives());
  std::uint64_t acc = 0;
  for (const coverage::ObjectiveFirstHit& hit : provenance.hits()) {
    std::uint64_t one = kFnvOffset;
    one = Mix(one, static_cast<std::uint64_t>(hit.kind));
    one = MixStr(one, hit.name);
    one = Mix(one, static_cast<std::uint64_t>(hit.decision));
    one = Mix(one, static_cast<std::uint64_t>(hit.condition));
    one = Mix(one, static_cast<std::uint64_t>(hit.outcome));
    one = Mix(one, static_cast<std::uint64_t>(hit.slot));
    one = Mix(one, hit.iteration);
    one = Mix(one, static_cast<std::uint64_t>(hit.entry_id));
    one = MixStr(one, hit.chain);
    acc += one;  // commutative fold: hit order may differ across engines
  }
  h = Mix(h, acc);
  h = Mix(h, provenance.hits().size());
  return h;
}

}  // namespace cftcg::fuzz
