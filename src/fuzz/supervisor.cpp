#include "fuzz/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <utility>

#include "fuzz/lane.hpp"
#include "obs/monitor.hpp"
#include "support/atomic_file.hpp"
#include "support/io.hpp"

namespace cftcg::fuzz {

namespace {

// -- Pipe frame protocol ---------------------------------------------------
// [magic u32][type u8][len u64][fnv64(payload) u64][payload]. The checksum
// is not a security boundary — it catches torn writes and the injector's
// deliberate bit flips, turning a corrupted delta into a detectable worker
// exit instead of silent state divergence.

constexpr std::uint32_t kFrameMagic = 0x57544643;  // "CFTW"
constexpr std::uint64_t kMaxFrame = 1ULL << 30;
constexpr std::size_t kHeaderSize = 4 + 1 + 8 + 8;

enum MsgType : std::uint8_t {
  kMsgRun = 1,
  kMsgSync = 2,
  kMsgFinish = 3,
  kMsgHello = 4,
  kMsgRound = 5,
  kMsgState = 6,
  kMsgResult = 7,
};

constexpr std::uint8_t kNoFault = 0xFF;

// Child exit codes (diagnostic only; any abnormal exit triggers recovery).
constexpr int kExitCrashFault = 77;  // injected crash
constexpr int kExitProtocol = 70;    // malformed command frame

// While it waits on a lane, the parent wakes at least this often to relay
// every lane's mid-round progress to the status board.
constexpr double kProgressPollS = 0.2;

std::uint64_t Fnv64(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string FrameHeader(std::uint8_t type, const std::string& payload) {
  wire::Writer w;
  w.U32(kFrameMagic);
  w.U8(type);
  w.U64(payload.size());
  w.U64(Fnv64(payload.data(), payload.size()));
  return w.take();
}

// The header fields; false on a bad magic or an oversized payload.
bool ParseFrameHeader(const char (&header)[kHeaderSize], std::uint8_t* type, std::uint64_t* len,
                      std::uint64_t* sum) {
  wire::Reader r(std::string_view(header, kHeaderSize));
  const bool magic = r.U32() == kFrameMagic;
  *type = r.U8();
  *len = r.U64();
  *sum = r.U64();
  return magic && *len <= kMaxFrame;
}

// -- Child-side blocking framing ------------------------------------------

bool ChildWriteFrame(int fd, std::uint8_t type, const std::string& payload) {
  const std::string header = FrameHeader(type, payload);
  if (!support::io::WriteFull(fd, header.data(), header.size()).ok()) return false;
  return support::io::WriteFull(fd, payload.data(), payload.size()).ok();
}

bool ChildReadFrame(int fd, std::uint8_t* type, std::string* payload) {
  char header[kHeaderSize];
  std::uint64_t len = 0;
  std::uint64_t sum = 0;
  if (!support::io::ReadFull(fd, header, sizeof(header)).ok() ||
      !ParseFrameHeader(header, type, &len, &sum)) {
    return false;
  }
  payload->assign(len, '\0');
  if (len > 0 && !support::io::ReadFull(fd, payload->data(), len).ok()) return false;
  return Fnv64(payload->data(), payload->size()) == sum;
}

// -- Lane window -----------------------------------------------------------
// A shared-memory window the worker stamps before every execution (via
// FuzzerOptions::input_tap). It carries the input bytes — when the process
// dies mid-execution the supervisor quarantines the in-flight input — and
// the lane's execution count, which the supervisor relays to the status
// board while it waits on a round, so an isolated lane shows mid-round
// progress the way a thread does. The sequence counter is even when the
// stamp is complete; with the writer dead a torn stamp is still usable
// forensics, just flagged as such.

constexpr std::size_t kCaptureCap = 1 << 16;

struct InputCapture {
  std::atomic<std::uint32_t> seq;
  std::atomic<std::uint64_t> executions;  // lane executions before this input
  std::uint32_t len;                      // stamped bytes (truncated to kCaptureCap)
  std::uint32_t full_len;                 // original input size
  std::uint8_t data[kCaptureCap];
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the lane window is shared across processes");

// The child's tap context: the window and the engine whose count it relays.
struct ChildTap {
  InputCapture* capture = nullptr;
  const Fuzzer* fuzzer = nullptr;
};

void StampInput(void* ctx, const std::uint8_t* data, std::size_t size) {
  const auto* tap = static_cast<const ChildTap*>(ctx);
  InputCapture* cap = tap->capture;
  cap->seq.fetch_add(1, std::memory_order_release);  // odd: stamp in progress
  cap->full_len = static_cast<std::uint32_t>(size);
  cap->len = static_cast<std::uint32_t>(std::min(size, kCaptureCap));
  std::memcpy(cap->data, data, cap->len);
  cap->seq.fetch_add(1, std::memory_order_release);  // even: stamp complete
  if (tap->fuzzer != nullptr) {
    cap->executions.store(tap->fuzzer->executions(), std::memory_order_relaxed);
  }
}

// -- Worker process --------------------------------------------------------

struct ChildSpec {
  LaneSpec lane;    // resume: the state this (re)spawn starts from
  int cmd_fd = -1;  // commands in
  int res_fd = -1;  // replies out
  InputCapture* capture = nullptr;
};

[[noreturn]] void ChildRun(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
                           const vm::Program* fuzz_only, ChildSpec cs) {
  // Lane processes must outlive terminal signals aimed at the campaign (the
  // supervisor coordinates shutdown at barriers) but never outlive the
  // supervisor itself.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif

  FuzzerOptions wopts = cs.lane.options;
  // The parent's status board is not in this address space; progress
  // reaches it through the lane window instead.
  wopts.status_board = nullptr;
  std::unique_ptr<coverage::ProvenanceMap> prov;
  if (cs.lane.want_provenance) {
    prov = std::make_unique<coverage::ProvenanceMap>(spec);
    wopts.provenance = prov.get();
  }
  // Branch distances reach the parent inside every FuzzerState frame.
  coverage::MarginRecorder margins;
  if (cs.lane.want_margins) wopts.margins = &margins;
  // Per-execution trace events reach it in the HELLO, ROUND and STATE
  // replies, each carrying the events since the previous reply.
  std::string events;
  obs::TraceWriter events_trace(&events);
  obs::CampaignTelemetry events_telemetry{nullptr, &events_trace};
  if (cs.lane.want_events) wopts.telemetry = &events_telemetry;
  wopts.resume = cs.lane.resume;
  ChildTap tap{cs.capture, nullptr};
  if (cs.capture != nullptr) {
    wopts.input_tap = StampInput;
    wopts.input_tap_ctx = &tap;
  }

  Fuzzer fuzzer(instrumented, spec, wopts, fuzz_only);
  tap.fuzzer = &fuzzer;
  fuzzer.Begin(cs.lane.budget);
  // Entries the supervisor already knows about: everything restored from a
  // resume state was scanned at the barrier that produced the state.
  std::size_t shipped = cs.lane.resume != nullptr ? fuzzer.corpus().size() : 0;

  const auto send_corpus_tail = [&](std::uint8_t type) {
    wire::Writer w;
    const Corpus& corpus = fuzzer.corpus();
    w.U64(shipped);  // base cursor: parent skips anything it already scanned
    w.U8(fuzzer.done() ? 1 : 0);
    w.U64(fuzzer.executions());
    w.U64(corpus.size() - shipped);
    for (std::size_t k = shipped; k < corpus.size(); ++k) {
      const CorpusEntry& e = corpus.entry(k);
      w.Bytes(e.data);
      w.U64(e.signature);
    }
    w.Str(std::exchange(events, std::string()));
    shipped = corpus.size();
    if (!ChildWriteFrame(cs.res_fd, type, w.take())) std::_Exit(kExitProtocol + 1);
  };

  send_corpus_tail(kMsgHello);

  while (true) {
    std::uint8_t type = 0;
    std::string payload;
    if (!ChildReadFrame(cs.cmd_fd, &type, &payload)) std::_Exit(kExitProtocol);
    wire::Reader r(payload);
    if (type == kMsgRun) {
      const std::uint64_t target = r.U64();
      const std::uint8_t fault = r.U8();
      const std::uint64_t fault_at = r.U64();
      const std::uint64_t fault_param = r.U64();
      if (r.failed()) std::_Exit(kExitProtocol);
      if (fault == static_cast<std::uint8_t>(support::FaultKind::kCrash) ||
          fault == static_cast<std::uint8_t>(support::FaultKind::kHang)) {
        // Run up to the fault point so the lane dies with real mid-round
        // state (that is what recovery has to cope with), then fault.
        fuzzer.RunChunk(std::min(fault_at, target));
        if (fault == static_cast<std::uint8_t>(support::FaultKind::kCrash)) {
          std::_Exit(kExitCrashFault);
        }
        while (true) support::io::SleepMs(1000);  // wedged: heartbeat timeout
      }
      fuzzer.RunChunk(target);
      if (fault == static_cast<std::uint8_t>(support::FaultKind::kSlowLane)) {
        support::io::SleepMs(static_cast<int>(fault_param));
      }
      send_corpus_tail(kMsgRound);
    } else if (type == kMsgSync) {
      const std::uint64_t count = r.U64();
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::vector<std::uint8_t> data = r.Bytes();
        const std::uint64_t signature = r.U64();
        if (r.failed()) std::_Exit(kExitProtocol);
        fuzzer.ImportEntry(data, signature);
      }
      shipped = fuzzer.corpus().size();  // imports carry already-seen signatures
      wire::Writer w;
      AppendFuzzerState(w, fuzzer.SaveState());
      w.Str(std::exchange(events, std::string()));
      if (!ChildWriteFrame(cs.res_fd, kMsgState, w.take())) std::_Exit(kExitProtocol + 1);
    } else if (type == kMsgFinish) {
      FuzzerState st = fuzzer.SaveState();
      const CampaignResult res = fuzzer.Finish();
      // Post-Finish provenance: includes the "unretained" MCDC sweep the
      // barrier states never see.
      if (prov != nullptr) st.provenance_hits = prov->hits();
      wire::Writer w;
      AppendFuzzerState(w, st);
      w.U64Vec(res.focus_stats.executions);
      w.U64Vec(res.focus_stats.credited);
      if (!ChildWriteFrame(cs.res_fd, kMsgResult, w.take())) std::_Exit(kExitProtocol + 1);
      std::_Exit(0);
    } else {
      std::_Exit(kExitProtocol);
    }
  }
}

// Parsed ROUND / HELLO reply.
struct RoundReply {
  std::uint64_t base = 0;  // corpus index of entries[0]
  bool done = false;
  std::uint64_t executions = 0;
  std::vector<CorpusEntry> entries;  // data and signature only
  std::string events;                // the round's trace events (JSONL)
};

bool ParseRoundReply(const std::string& payload, RoundReply* out) {
  wire::Reader r(payload);
  out->base = r.U64();
  out->done = r.U8() != 0;
  out->executions = r.U64();
  const std::uint64_t count = r.U64();
  out->entries.clear();
  for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
    CorpusEntry& e = out->entries.emplace_back();
    e.data = r.Bytes();
    e.signature = r.U64();
  }
  out->events = r.Str();
  return !r.failed();
}

// Parsed RESULT: the final state (with the Finish-time first hits) plus the
// focus accounting.
bool ParseLaneResult(const std::string& payload, FuzzerState* state, FocusStats* focus) {
  wire::Reader r(payload);
  if (!ReadFuzzerState(r, *state)) return false;
  focus->executions = r.U64Vec();
  focus->credited = r.U64Vec();
  return !r.failed();
}

class ProcessLane;

// What the process lanes of one campaign share: the programs the children
// run, the supervision policy and its accounting, and the lane registry — a
// forked child closes every sibling's pipe ends, because holding one would
// mask that sibling's EOF from the parent.
struct ProcessTransport {
  ProcessTransport(const vm::Program& instrumented_program,
                   const coverage::CoverageSpec& coverage_spec,
                   const vm::Program* fuzz_only_program, const FuzzerOptions& campaign,
                   const SupervisorOptions& policy, SupervisionStats& accounting)
      : instrumented(instrumented_program),
        spec(coverage_spec),
        fuzz_only(fuzz_only_program),
        options(campaign),
        supervise(policy),
        stats(accounting) {}
  ~ProcessTransport() { std::signal(SIGPIPE, old_sigpipe); }
  ProcessTransport(const ProcessTransport&) = delete;
  ProcessTransport& operator=(const ProcessTransport&) = delete;

  /// Relays every lane's mid-round execution count to the status board.
  void StampProgress() const;

  const vm::Program& instrumented;
  const coverage::CoverageSpec& spec;
  const vm::Program* fuzz_only;
  const FuzzerOptions& options;  // the campaign's: telemetry and status board
  const SupervisorOptions& supervise;
  SupervisionStats& stats;
  std::vector<ProcessLane*> lanes;
  // A dead lane's command pipe must surface as EPIPE, not kill the parent.
  void (*old_sigpipe)(int) = std::signal(SIGPIPE, SIG_IGN);
};

// Forked-process transport: the lane's Fuzzer lives in a child commanded
// over a pair of pipes (RUN / SYNC / FINISH in; HELLO / ROUND / STATE /
// RESULT out). The parent keeps the lane's last post-sync barrier state: it
// is what heartbeats, checkpoints and /profile read, and what a respawned
// child resumes from after a crash, a hang or a torn frame.
class ProcessLane final : public Lane {
 public:
  ProcessLane(ProcessTransport& transport, const LaneSpec& spec)
      : t_(transport), spec_(spec), backoff_s_(transport.supervise.restart_backoff_s) {
    void* m = ::mmap(nullptr, sizeof(InputCapture), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (m != MAP_FAILED) capture_ = new (m) InputCapture();
    t_.lanes.push_back(this);
  }
  ~ProcessLane() override {
    ClosePipes();
    Reap(/*force_kill=*/true);
    if (capture_ != nullptr) ::munmap(capture_, sizeof(InputCapture));
    std::erase(t_.lanes, this);
  }

  void Begin() override {
    expect_ = kMsgHello;
    if (!Spawn()) Retire();
  }

  void StartRound(std::uint64_t target) override {
    run_target_ = target;
    expect_ = kMsgRound;
    ran_since_state_ = true;
    round_s_ = -1;
    round_t0_ = Now();
    if (SendRun()) return;
    OnDeath("died before round", /*hang=*/false);
    if (Respawn() && !SendRun()) Retire();
  }

  void AwaitRound() override {
    const bool seeding = expect_ == kMsgHello;
    while (!retired_) {
      std::string payload;
      const Io io = Await(expect_, &payload);
      if (io == Io::kOk && ParseRoundReply(payload, &reply_)) {
        if (!seeding) round_s_ = Now() - round_t0_;
        done_ = reply_.done;
        executions_ = reply_.executions;
        StampBoard(executions_);
        return;
      }
      const bool hang = io == Io::kTimeout;
      OnDeath(hang ? "heartbeat timeout" : seeding ? "died during seeding" : "died mid-round",
              hang);
      if (!Respawn()) return;
      if (seeding || SendRun()) continue;
      OnDeath("died at respawn", /*hang=*/false);
      if (Respawn() && !SendRun()) Retire();
    }
  }

  std::vector<const CorpusEntry*> NewEntries(std::size_t from) const override {
    // Base-aware window: a report replayed after a respawn re-sends entries
    // the barrier already scanned; they fall below `from`.
    const auto base = static_cast<std::size_t>(reply_.base);
    std::vector<const CorpusEntry*> out;
    for (std::size_t k = std::max(from, base); k < base + reply_.entries.size(); ++k) {
      out.push_back(&reply_.entries[k - base]);
    }
    return out;
  }

  void Sync(const std::vector<const CorpusEntry*>& imports) override {
    wire::Writer w;
    w.U64(imports.size());
    for (const CorpusEntry* e : imports) {
      w.Bytes(e->data);
      w.U64(e->signature);
    }
    const std::string payload = w.take();
    ++syncs_;
    bool replay = false;
    while (!retired_) {
      if (replay) {
        // The respawned child restored the pre-round state: redo the round
        // (deterministic: same state, same RNG, no fault — it was consumed
        // at arming). Its entries were already scanned at this barrier.
        std::string round;
        if (!SendRun() || Await(kMsgRound, &round) != Io::kOk ||
            !ParseRoundReply(round, &reply_)) {
          OnDeath("died replaying round", /*hang=*/false);
          if (!Respawn()) return;
          continue;
        }
        replay = false;
      }
      bool corrupt = false;
      if (support::FaultInjector* faults = t_.supervise.faults) {
        if (support::FaultEvent* ev = faults->NextCorruptDelta(spec_.index, syncs_)) {
          ev->fired = true;
          corrupt = true;
          Trace(obs::TraceEvent("fault_injected")
                    .F64("time_s", Now())
                    .Str("kind", "corrupt")
                    .U64("worker", static_cast<std::uint64_t>(spec_.index))
                    .U64("at", syncs_));
        }
      }
      std::string reply;
      if (Send(kMsgSync, payload, corrupt) && Await(kMsgState, &reply) == Io::kOk) {
        wire::Reader r(reply);
        FuzzerState st;
        const bool parsed = ReadFuzzerState(r, st);
        std::string sync_events = r.Str();
        if (parsed && !r.failed()) {
          state_ = std::move(st);
          sync_events_ = std::move(sync_events);
          has_state_ = true;
          executions_ = state_.executions;
          ran_since_state_ = false;
          if (obs::CampaignStatusBoard* board = t_.options.status_board) {
            board->SetWorkerRestarting(spec_.index, false);
            StampBoard(executions_);
            if (done_) board->SetWorkerDone(spec_.index);
          }
          return;
        }
      }
      // Death (or an unparseable state, treated the same) anywhere in the
      // exchange: respawn from the last barrier state and replay the phase.
      OnDeath(corrupt ? "corrupted delta" : "died in sync", /*hang=*/false);
      if (!Respawn()) return;
      replay = ran_since_state_;
    }
  }

  CampaignResult Finish() override {
    // A retired or just-died lane joins the merge with its last barrier
    // state: coverage and corpus up to the barrier are valid campaign output.
    CampaignResult r;
    if (!retired_ && pid_ >= 0) {
      std::string payload;
      FuzzerState final_state;
      FocusStats focus;
      if (Send(kMsgFinish, std::string()) && Await(kMsgResult, &payload) == Io::kOk &&
          ParseLaneResult(payload, &final_state, &focus)) {
        state_ = std::move(final_state);
        has_state_ = true;
        r.focus_stats = std::move(focus);
        ClosePipes();
        Reap(/*force_kill=*/false);
      } else {
        OnDeath("died during finish", /*hang=*/false);
      }
    }
    if (obs::CampaignStatusBoard* board = t_.options.status_board) {
      board->SetWorkerDone(spec_.index);
    }
    if (spec_.want_provenance) {
      provenance_ = std::make_unique<coverage::ProvenanceMap>(t_.spec);
      for (const coverage::ObjectiveFirstHit& h : state_.provenance_hits) {
        provenance_->AbsorbHit(h);
      }
    }
    r.corpus_fingerprint = CorpusFingerprint(state_.corpus);
    r.executions = state_.executions;
    r.model_iterations = state_.model_iterations;
    r.measure_iterations = state_.measure_iterations;
    r.hangs = state_.hangs;
    r.strategy_stats = state_.strategy_stats;
    r.test_cases = state_.test_cases;
    r.exec_profile = state_.exec_profile;
    r.fuzz_exec_profile = state_.fuzz_exec_profile;
    r.phase_profile = state_.phase_profile;
    return r;
  }

  std::string TakeEvents() override {
    std::string out = std::exchange(reply_.events, std::string());
    out += std::exchange(sync_events_, std::string());
    return out;
  }

  bool live() const override { return !retired_; }
  bool done() const override { return done_; }
  LaneCounters counters() const override {
    // Executions as of the last round reply; the rest as of the last STATE.
    LaneCounters c{executions_,  state_.model_iterations,  state_.measure_iterations,
                   state_.hangs, state_.test_cases.size(), state_.corpus.size(),
                   0,            0,                        state_.strategy_stats};
    for (const CorpusEntry& e : state_.corpus) {
      c.corpus_energy += e.metric + 1;
      c.max_metric = std::max<std::uint64_t>(c.max_metric, e.metric);
    }
    return c;
  }
  double round_seconds() const override { return round_s_; }
  void MergeCoverageInto(coverage::CoverageSink& global) const override {
    if (!has_state_) return;
    coverage::CoverageSink scratch(t_.spec);
    if (scratch.RestoreCampaign(state_.total_words, state_.evals)) global.MergeFrom(scratch);
  }
  const vm::ExecProfile& exec_profile() const override { return state_.exec_profile; }
  const obs::PhaseProfile& phase_profile() const override { return state_.phase_profile; }
  FuzzerState SaveState() const override { return state_; }
  std::vector<std::uint64_t> CorpusSignatures() const override {
    return Signatures(state_.corpus);
  }
  const coverage::ProvenanceMap* provenance() const override { return provenance_.get(); }
  std::vector<double> margins() const override { return state_.margins; }

  /// Relays the child's execution count (stamped before each input) to the
  /// status board. Only a count that moved is stamped: a wedged lane must
  /// still look stalled to the watchdog.
  void StampProgress() {
    if (capture_ == nullptr || pid_ < 0) return;
    const std::uint64_t e = capture_->executions.load(std::memory_order_relaxed);
    if (e > relayed_) StampBoard(e);
  }

  /// Drops this lane's parent-side descriptors (also in a forked sibling).
  void ClosePipes() {
    if (cmd_ >= 0) ::close(cmd_);
    if (res_ >= 0) ::close(res_);
    cmd_ = res_ = -1;
  }

 private:
  enum class Io { kOk, kDead, kTimeout };

  [[nodiscard]] double Now() const { return spec_.clock->Now(); }

  void StampBoard(std::uint64_t executions) {
    obs::CampaignStatusBoard* board = t_.options.status_board;
    if (board == nullptr) return;
    relayed_ = std::max(relayed_, executions);
    board->StampWorker(spec_.index, executions);
  }
  void Trace(const obs::TraceEvent& ev) const {
    if (t_.options.telemetry != nullptr && t_.options.telemetry->trace != nullptr) {
      t_.options.telemetry->trace->Emit(ev);
    }
  }
  void Count(const char* counter) const {
    if (t_.options.telemetry != nullptr && t_.options.telemetry->registry != nullptr) {
      t_.options.telemetry->registry->GetCounter(counter).Increment();
    }
  }

  // -- Framed I/O with deadlines ------------------------------------------

  Io ReadExact(char* buf, std::size_t size, double deadline) {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t r = ::read(res_, buf + got, size - got);
      if (r > 0) {
        got += static_cast<std::size_t>(r);
        continue;
      }
      if (r == 0) return Io::kDead;
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) return Io::kDead;
      const double left = deadline - Now();
      if (left <= 0) return Io::kTimeout;
      struct pollfd pfd {res_, POLLIN, 0};
      const int wait_ms = static_cast<int>(std::min(left, kProgressPollS) * 1000) + 1;
      const int pr = support::io::PollRetry(&pfd, 1, wait_ms);
      if (pr < 0) return Io::kDead;
      if (pr == 0) t_.StampProgress();
    }
    return Io::kOk;
  }

  Io WriteExact(const char* buf, std::size_t size, double deadline) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t r = ::write(cmd_, buf + sent, size - sent);
      if (r > 0) {
        sent += static_cast<std::size_t>(r);
        continue;
      }
      if (r < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) return Io::kDead;
      const double left = deadline - Now();
      if (left <= 0) return Io::kTimeout;
      struct pollfd pfd {cmd_, POLLOUT, 0};
      const int pr = support::io::PollRetry(&pfd, 1, static_cast<int>(left * 1000) + 1);
      if (pr == 0) return Io::kTimeout;
      if (pr < 0) return Io::kDead;
    }
    return Io::kOk;
  }

  bool Send(std::uint8_t type, const std::string& payload, bool corrupt = false) {
    if (cmd_ < 0) return false;
    const std::string header = FrameHeader(type, payload);
    const double deadline = Now() + t_.supervise.lane_timeout_s;
    if (WriteExact(header.data(), header.size(), deadline) != Io::kOk) return false;
    if (!corrupt || payload.empty()) {
      return WriteExact(payload.data(), payload.size(), deadline) == Io::kOk;
    }
    std::string body = payload;
    body[body.size() / 2] ^= 0x20;  // the checksum now lies
    return WriteExact(body.data(), body.size(), deadline) == Io::kOk;
  }

  // Awaits one frame of `want` type, discarding HELLOs from respawned
  // children. kDead / kTimeout go to the caller, which owns the recovery
  // sequence for its protocol phase.
  Io Await(std::uint8_t want, std::string* payload) {
    if (res_ < 0) return Io::kDead;
    const double deadline = Now() + t_.supervise.lane_timeout_s;
    while (true) {
      char header[kHeaderSize];
      Io io = ReadExact(header, sizeof(header), deadline);
      if (io != Io::kOk) return io;
      std::uint8_t type = 0;
      std::uint64_t len = 0;
      std::uint64_t sum = 0;
      if (!ParseFrameHeader(header, &type, &len, &sum)) return Io::kDead;
      payload->assign(len, '\0');
      if (len > 0 && (io = ReadExact(payload->data(), len, deadline)) != Io::kOk) return io;
      if (Fnv64(payload->data(), payload->size()) != sum) return Io::kDead;
      if (type == want) return Io::kOk;
      if (type != kMsgHello) return Io::kDead;  // protocol violation: treat as dead
    }
  }

  // Sends RUN for the current round. Arms at most one injected lane fault,
  // consumed at arming so a respawn never re-fires it. The target is latched
  // at the round top: a replay after a death in the sync phase must redo
  // THIS round, not skip a barrier.
  bool SendRun() {
    std::uint8_t fault_kind = kNoFault;
    std::uint64_t fault_at = 0;
    std::uint64_t fault_param = 0;
    if (support::FaultInjector* faults = t_.supervise.faults) {
      if (support::FaultEvent* ev = faults->NextLaneFault(spec_.index, run_target_)) {
        ev->armed = true;
        ev->fired = true;
        fault_kind = static_cast<std::uint8_t>(ev->kind);
        fault_at = ev->at;
        fault_param = ev->param;
        Trace(obs::TraceEvent("fault_injected")
                  .F64("time_s", Now())
                  .Str("kind", support::FaultKindName(ev->kind))
                  .U64("worker", static_cast<std::uint64_t>(spec_.index))
                  .U64("at", ev->at));
      }
    }
    wire::Writer w;
    w.U64(run_target_);
    w.U8(fault_kind);
    w.U64(fault_at);
    w.U64(fault_param);
    return Send(kMsgRun, w.take());
  }

  // -- Spawn / death / recovery -------------------------------------------

  bool Spawn() {
    int cmd_pipe[2];
    int res_pipe[2];
    if (::pipe(cmd_pipe) != 0) return false;
    if (::pipe(res_pipe) != 0) {
      ::close(cmd_pipe[0]);
      ::close(cmd_pipe[1]);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int fd : {cmd_pipe[0], cmd_pipe[1], res_pipe[0], res_pipe[1]}) ::close(fd);
      return false;
    }
    if (pid == 0) {
      for (ProcessLane* other : t_.lanes) other->ClosePipes();
      ::close(cmd_pipe[1]);
      ::close(res_pipe[0]);
      ChildSpec cs{spec_};
      if (has_state_) cs.lane.resume = &state_;
      cs.cmd_fd = cmd_pipe[0];
      cs.res_fd = res_pipe[1];
      cs.capture = capture_;
      ChildRun(t_.instrumented, t_.spec, t_.fuzz_only, std::move(cs));  // never returns
    }
    ::close(cmd_pipe[0]);
    ::close(res_pipe[1]);
    ::fcntl(cmd_pipe[1], F_SETFL, O_NONBLOCK);
    ::fcntl(res_pipe[0], F_SETFL, O_NONBLOCK);
    pid_ = pid;
    cmd_ = cmd_pipe[1];
    res_ = res_pipe[0];
    return true;
  }

  void Reap(bool force_kill) {
    if (pid_ < 0) return;
    if (force_kill) ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  // Quarantines the input that was executing when the lane died.
  std::string QuarantineCrash() const {
    if (capture_ == nullptr || t_.supervise.crashes_dir.empty()) return {};
    const std::uint32_t len = std::min<std::uint32_t>(capture_->len, kCaptureCap);
    if (len == 0) return {};
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t i = 0; i < len; ++i) {
      h ^= capture_->data[i];
      h *= 1099511628211ULL;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "crash-%016llx.bin", static_cast<unsigned long long>(h));
    if (!support::EnsureDir(t_.supervise.crashes_dir).ok()) return {};
    const std::string path = t_.supervise.crashes_dir + "/" + name;
    const std::string bytes(reinterpret_cast<const char*>(capture_->data), len);
    if (!support::WriteFileAtomic(path, bytes).ok()) return {};
    return path;
  }

  void OnDeath(const char* reason, bool hang) {
    // A dead lane is finished off either way: the kill also ends a live
    // child that sent garbage, so the reap cannot wedge.
    ClosePipes();
    Reap(/*force_kill=*/true);
    ++t_.stats.crashes;
    if (hang) ++t_.stats.hang_kills;
    const std::string artifact = QuarantineCrash();
    if (obs::CampaignStatusBoard* board = t_.options.status_board) {
      board->LogInstant(hang ? "hang_kill" : "crash", spec_.index + 1, Now());
      board->SetWorkerRestarting(spec_.index, true);
    }
    Count("fuzz.worker_crashes");
    if (hang) Count("fuzz.worker_hang_kills");
    Trace(obs::TraceEvent("worker_crash")
              .F64("time_s", Now())
              .U64("worker", static_cast<std::uint64_t>(spec_.index))
              .U64("exec", executions_)
              .Str("reason", reason)
              .Str("artifact", artifact));
  }

  void Retire() {
    ClosePipes();
    Reap(/*force_kill=*/true);
    retired_ = true;
    ++t_.stats.lanes_retired;
    if (obs::CampaignStatusBoard* board = t_.options.status_board) {
      board->SetWorkerRestarting(spec_.index, false);
      board->SetWorkerDone(spec_.index);
      board->LogInstant("lane_retired", spec_.index + 1, Now());
    }
    Count("fuzz.lanes_retired");
    Trace(obs::TraceEvent("lane_retired")
              .F64("time_s", Now())
              .U64("worker", static_cast<std::uint64_t>(spec_.index))
              .U64("restarts", static_cast<std::uint64_t>(restarts_)));
  }

  // Respawns the dead lane with capped exponential backoff. Returns false
  // if the lane hit its restart cap (or could not fork) and was retired.
  bool Respawn() {
    if (restarts_ >= t_.supervise.max_restarts) {
      Retire();
      return false;
    }
    support::io::SleepMs(static_cast<int>(backoff_s_ * 1000));
    backoff_s_ = std::min(backoff_s_ * 2, t_.supervise.restart_backoff_cap_s);
    ++restarts_;
    ++t_.stats.restarts;
    if (!Spawn()) {
      Retire();
      return false;
    }
    if (obs::CampaignStatusBoard* board = t_.options.status_board) {
      board->CountWorkerRestart(spec_.index);
      board->LogInstant("respawn", spec_.index + 1, Now());
    }
    Count("fuzz.worker_restarts");
    Trace(obs::TraceEvent("worker_respawn")
              .F64("time_s", Now())
              .U64("worker", static_cast<std::uint64_t>(spec_.index))
              .U64("restarts", static_cast<std::uint64_t>(restarts_)));
    return true;
  }

  ProcessTransport& t_;
  const LaneSpec spec_;
  pid_t pid_ = -1;
  int cmd_ = -1;                     // parent writes commands
  int res_ = -1;                     // parent reads replies
  InputCapture* capture_ = nullptr;  // the lane window, shared with the child
  bool retired_ = false;
  bool done_ = false;
  std::uint64_t executions_ = 0;
  std::uint64_t run_target_ = 0;     // this round's RUN target
  std::uint8_t expect_ = kMsgHello;  // reply the next AwaitRound collects
  bool ran_since_state_ = false;     // a RUN went out after the last STATE
  FuzzerState state_;                // last post-sync barrier state (respawn point)
  bool has_state_ = false;
  std::uint64_t syncs_ = 0;          // SYNC exchanges (the corrupt-delta fault ordinal)
  int restarts_ = 0;
  double backoff_s_;
  RoundReply reply_;
  std::string sync_events_;          // trace events of the imports in the last SYNC
  double round_t0_ = 0;
  double round_s_ = -1;
  std::uint64_t relayed_ = 0;        // highest count shown on the status board
  std::unique_ptr<coverage::ProvenanceMap> provenance_;
};

void ProcessTransport::StampProgress() const {
  if (options.status_board == nullptr) return;
  for (ProcessLane* lane : lanes) lane->StampProgress();
}

}  // namespace

Supervisor::Supervisor(const vm::Program& instrumented, const coverage::CoverageSpec& spec,
                       FuzzerOptions options, SupervisorOptions supervise,
                       const vm::Program* fuzz_only_program)
    : instrumented_(&instrumented),
      fuzz_only_(fuzz_only_program),
      spec_(&spec),
      options_(std::move(options)),
      supervise_(std::move(supervise)) {}

SupervisedCampaignResult Supervisor::Run(const FuzzBudget& budget) {
  SupervisedCampaignResult out;
  ProcessTransport transport(*instrumented_, *spec_, fuzz_only_, options_, supervise_, out);
  static_cast<ParallelCampaignResult&>(out) = RunLaneCampaign(
      *instrumented_, *spec_, options_, supervise_, budget,
      [&transport](const LaneSpec& lane) -> std::unique_ptr<Lane> {
        return std::make_unique<ProcessLane>(transport, lane);
      },
      supervise_.faults, &out);
  return out;
}

}  // namespace cftcg::fuzz
