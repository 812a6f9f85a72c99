// Contract suite for the crash-isolated supervised engine.
//
// The claims under test:
//   * determinism: a fault-free supervised campaign is bit-identical to the
//     threaded ParallelFuzzer for the same seed and worker count — merged
//     results, fingerprints, sorted signature set, per-worker executions,
//     merged provenance;
//   * fault containment: an injected worker crash, hang, or corrupted sync
//     delta is recovered by replaying the lane's round from its last barrier
//     state, so even a faulted campaign ends in the fault-free state;
//   * degradation: a lane that exhausts its restart budget is retired and
//     the campaign still completes with the remaining lanes;
//   * forensics: the input in flight at a crash is quarantined to a
//     content-hashed artifact in crashes_dir;
//   * live views: an isolated campaign publishes the same /profile as the
//     threaded one and relays mid-round lane progress to the status board.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "coverage/provenance.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"
#include "obs/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "support/fault_inject.hpp"

namespace cftcg::fuzz {
namespace {

std::unique_ptr<CompiledModel> Compile(const char* name) {
  auto model = bench_models::Build(name);
  EXPECT_TRUE(model.ok()) << model.message();
  auto cm = CompiledModel::FromModel(model.take());
  EXPECT_TRUE(cm.ok()) << cm.message();
  return cm.take();
}

FuzzBudget ExecBudget(std::uint64_t max_executions) {
  FuzzBudget budget;
  budget.wall_seconds = 600;
  budget.max_executions = max_executions;
  return budget;
}

void ExpectSameCampaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.model_iterations, b.model_iterations);
  EXPECT_EQ(a.measure_iterations, b.measure_iterations);
  EXPECT_EQ(a.corpus_fingerprint, b.corpus_fingerprint);
  EXPECT_EQ(a.coverage_fingerprint, b.coverage_fingerprint);
  EXPECT_EQ(a.report.outcome_covered, b.report.outcome_covered);
  EXPECT_EQ(a.report.condition_polarity_covered, b.report.condition_polarity_covered);
  EXPECT_EQ(a.report.mcdc_covered, b.report.mcdc_covered);
  ASSERT_EQ(a.test_cases.size(), b.test_cases.size());
  for (std::size_t i = 0; i < a.test_cases.size(); ++i) {
    EXPECT_EQ(a.test_cases[i].data, b.test_cases[i].data) << "test case " << i;
  }
}

SupervisedCampaignResult RunSupervised(CompiledModel& cm, std::uint64_t seed, int workers,
                                       std::uint64_t execs,
                                       coverage::ProvenanceMap* prov = nullptr,
                                       support::FaultInjector* faults = nullptr,
                                       const SupervisorOptions* base = nullptr) {
  FuzzerOptions options;
  options.seed = seed;
  options.model_oriented = true;
  options.provenance = prov;
  SupervisorOptions sup = base != nullptr ? *base : SupervisorOptions{};
  sup.num_workers = workers;
  sup.sync_every = 64;
  sup.faults = faults;
  Supervisor supervisor(cm.instrumented(), cm.spec(), options, sup);
  return supervisor.Run(ExecBudget(execs));
}

ParallelCampaignResult RunThreaded(CompiledModel& cm, std::uint64_t seed, int workers,
                                   std::uint64_t execs,
                                   coverage::ProvenanceMap* prov = nullptr) {
  FuzzerOptions options;
  options.seed = seed;
  options.model_oriented = true;
  options.provenance = prov;
  ParallelOptions par;
  par.num_workers = workers;
  par.sync_every = 64;
  ParallelFuzzer fuzzer(cm.instrumented(), cm.spec(), options, par);
  return fuzzer.Run(ExecBudget(execs));
}

void CheckSupervisedMatchesThreaded(const char* model, int workers, std::uint64_t execs) {
  auto cm = Compile(model);
  coverage::ProvenanceMap prov_t(cm->spec());
  coverage::ProvenanceMap prov_s(cm->spec());
  const ParallelCampaignResult threaded = RunThreaded(*cm, 7, workers, execs, &prov_t);
  const SupervisedCampaignResult supervised = RunSupervised(*cm, 7, workers, execs, &prov_s);

  ExpectSameCampaign(threaded.merged, supervised.merged);
  EXPECT_EQ(threaded.corpus_signatures, supervised.corpus_signatures);
  EXPECT_EQ(threaded.worker_executions, supervised.worker_executions);
  EXPECT_EQ(threaded.imports, supervised.imports);
  EXPECT_EQ(supervised.crashes, 0U);
  EXPECT_EQ(supervised.restarts, 0U);
  EXPECT_EQ(supervised.lanes_retired, 0U);

  ASSERT_EQ(prov_t.hits().size(), prov_s.hits().size());
  for (std::size_t i = 0; i < prov_t.hits().size(); ++i) {
    const auto& ht = prov_t.hits()[i];
    const auto& hs = prov_s.hits()[i];
    EXPECT_EQ(ht.kind, hs.kind);
    EXPECT_EQ(ht.name, hs.name);
    EXPECT_EQ(ht.slot, hs.slot);
    EXPECT_EQ(ht.outcome, hs.outcome);
    EXPECT_EQ(ht.iteration, hs.iteration);
    EXPECT_EQ(ht.chain, hs.chain);
  }
}

TEST(SupervisedIdentityTest, OneWorkerMatchesThreadedAfc) {
  CheckSupervisedMatchesThreaded("AFC", 1, 400);
}

TEST(SupervisedIdentityTest, TwoWorkersMatchThreadedTcp) {
  CheckSupervisedMatchesThreaded("TCP", 2, 900);
}

TEST(SupervisedIdentityTest, ThreeWorkersMatchThreadedTcp) {
  CheckSupervisedMatchesThreaded("TCP", 3, 900);
}

// A campaign trace kept in memory.
struct InMemoryTrace {
  std::string buffer;
  obs::TraceWriter writer{&buffer};
  obs::CampaignTelemetry telemetry{nullptr, &writer};
};

// The per-execution events a campaign forwards (new, frontier, corpus,
// hang) and its closing objectives, timestamps dropped, in trace order.
std::vector<std::string> ForwardedEvents(const InMemoryTrace& t) {
  const std::string& trace = t.buffer;
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < trace.size()) {
    const std::size_t eol = trace.find('\n', pos);
    std::string line = trace.substr(pos, eol - pos);
    pos = eol == std::string::npos ? trace.size() : eol + 1;
    static const std::regex kKinds(R"re("ev":"(new|frontier|corpus|hang|objective)")re");
    if (!std::regex_search(line, kKinds)) continue;
    static const std::regex kTimes(R"re(^\{"t":[^,]*,|,"time_s":[^,}]*)re");
    out.push_back(std::regex_replace(line, kTimes, ""));
  }
  return out;
}

// Isolated lanes ship their branch distances inside FuzzerState frames and
// their trace events in round and sync replies, so the merged distances
// (per-slot min in lane-id order) and the forwarded events equal the
// threaded engine's bit for bit — and a lane respawned after a crash
// continues from its barrier state's distances and replays its round's
// events exactly once.
TEST(SupervisedIdentityTest, ThreeWorkersMergeTheThreadedMarginDistances) {
  auto cm = Compile("AFC");
  FuzzerOptions options;
  options.seed = 3;
  coverage::ProvenanceMap prov(cm->spec());
  options.provenance = &prov;
  InMemoryTrace threaded_trace;
  options.telemetry = &threaded_trace.telemetry;
  coverage::MarginRecorder threaded;
  options.margins = &threaded;
  ParallelOptions par;
  par.num_workers = 3;
  par.sync_every = 64;
  ParallelFuzzer(cm->instrumented(), cm->spec(), options, par).Run(ExecBudget(900));

  InMemoryTrace isolated_trace;
  options.telemetry = &isolated_trace.telemetry;
  coverage::ProvenanceMap prov_isolated(cm->spec());
  options.provenance = &prov_isolated;
  coverage::MarginRecorder isolated;
  options.margins = &isolated;
  SupervisorOptions sup;
  sup.num_workers = 3;
  sup.sync_every = 64;
  Supervisor(cm->instrumented(), cm->spec(), options, sup).Run(ExecBudget(900));
  ASSERT_EQ(threaded.distances().size(),
            static_cast<std::size_t>(cm->spec().num_outcome_slots()));
  EXPECT_EQ(threaded.distances(), isolated.distances());
  const std::vector<std::string> events = ForwardedEvents(threaded_trace);
  ASSERT_GT(events.size(), 20U);
  EXPECT_EQ(events, ForwardedEvents(isolated_trace));

  InMemoryTrace faulted_trace;
  options.telemetry = &faulted_trace.telemetry;
  coverage::ProvenanceMap prov_faulted(cm->spec());
  options.provenance = &prov_faulted;
  coverage::MarginRecorder faulted;
  options.margins = &faulted;
  support::FaultInjector inj;
  inj.events().push_back(
      support::FaultEvent{support::FaultKind::kCrash, /*lane=*/1, /*at=*/150, 0, false, false});
  sup.faults = &inj;
  const SupervisedCampaignResult r =
      Supervisor(cm->instrumented(), cm->spec(), options, sup).Run(ExecBudget(900));
  EXPECT_EQ(r.restarts, 1U);
  EXPECT_EQ(threaded.distances(), faulted.distances());
  EXPECT_EQ(events, ForwardedEvents(faulted_trace));
}

TEST(SupervisedFaultTest, CrashRecoveryConvergesToFaultFreeResult) {
  auto cm = Compile("TCP");
  const SupervisedCampaignResult clean = RunSupervised(*cm, 7, 2, 900);

  // Hand-built schedule: lane 0 crashes mid-round at 120 executions. The
  // respawned lane replays the round from its last barrier state with the
  // same RNG, so the campaign ends in exactly the fault-free state.
  support::FaultInjector inj;
  inj.events().push_back(
      support::FaultEvent{support::FaultKind::kCrash, /*lane=*/0, /*at=*/120, 0, false, false});

  const std::filesystem::path crashes =
      std::filesystem::temp_directory_path() / "cftcg_supervisor_crashes_test";
  std::filesystem::remove_all(crashes);
  SupervisorOptions base;
  base.crashes_dir = crashes.string();
  const SupervisedCampaignResult faulted =
      RunSupervised(*cm, 7, 2, 900, nullptr, &inj, &base);

  EXPECT_EQ(faulted.crashes, 1U);
  EXPECT_EQ(faulted.restarts, 1U);
  EXPECT_EQ(faulted.lanes_retired, 0U);
  ExpectSameCampaign(clean.merged, faulted.merged);
  EXPECT_EQ(clean.corpus_signatures, faulted.corpus_signatures);

  // The input in flight at the crash was quarantined as a content-hashed
  // artifact.
  bool artifact = false;
  if (std::filesystem::exists(crashes)) {
    for (const auto& e : std::filesystem::directory_iterator(crashes)) {
      artifact |= e.path().filename().string().rfind("crash-", 0) == 0;
    }
  }
  EXPECT_TRUE(artifact) << "no crash artifact in " << crashes;
  std::filesystem::remove_all(crashes);
}

TEST(SupervisedFaultTest, HangIsKilledAndRecovered) {
  auto cm = Compile("AFC");
  const SupervisedCampaignResult clean = RunSupervised(*cm, 9, 2, 400);

  support::FaultInjector inj;
  inj.events().push_back(
      support::FaultEvent{support::FaultKind::kHang, /*lane=*/1, /*at=*/90, 0, false, false});
  SupervisorOptions base;
  base.lane_timeout_s = 1.0;  // keep the deadline kill fast
  const SupervisedCampaignResult faulted =
      RunSupervised(*cm, 9, 2, 400, nullptr, &inj, &base);

  EXPECT_EQ(faulted.crashes, 1U);
  EXPECT_EQ(faulted.hang_kills, 1U);
  EXPECT_EQ(faulted.restarts, 1U);
  ExpectSameCampaign(clean.merged, faulted.merged);
}

TEST(SupervisedFaultTest, CorruptedDeltaIsDetectedAndResynced) {
  auto cm = Compile("TCP");
  const SupervisedCampaignResult clean = RunSupervised(*cm, 7, 2, 900);

  // Corrupt the second sync frame to lane 1: the frame checksum fails in the
  // child, the child exits, and the supervisor respawns + replays the sync
  // with an intact payload (the fault is consumed at corruption time).
  support::FaultInjector inj;
  inj.events().push_back(support::FaultEvent{support::FaultKind::kCorruptDelta, /*lane=*/1,
                                             /*at=*/2, 0, false, false});
  const SupervisedCampaignResult faulted = RunSupervised(*cm, 7, 2, 900, nullptr, &inj);

  EXPECT_GE(faulted.crashes, 1U);
  EXPECT_GE(faulted.restarts, 1U);
  ExpectSameCampaign(clean.merged, faulted.merged);
  EXPECT_EQ(clean.corpus_signatures, faulted.corpus_signatures);
}

TEST(SupervisedFaultTest, ExhaustedRestartBudgetRetiresLaneAndCampaignCompletes) {
  auto cm = Compile("TCP");
  support::FaultInjector inj;
  inj.events().push_back(
      support::FaultEvent{support::FaultKind::kCrash, /*lane=*/0, /*at=*/120, 0, false, false});
  SupervisorOptions base;
  base.max_restarts = 0;  // first death retires the lane
  const SupervisedCampaignResult r = RunSupervised(*cm, 7, 2, 900, nullptr, &inj, &base);

  EXPECT_EQ(r.crashes, 1U);
  EXPECT_EQ(r.restarts, 0U);
  EXPECT_EQ(r.lanes_retired, 1U);
  // The surviving lane finished its half of the budget; the retired lane
  // contributed its last barrier state. The campaign still reports.
  EXPECT_GT(r.merged.executions, 450U);
  EXPECT_LT(r.merged.executions, 900U);
  EXPECT_FALSE(r.merged.interrupted);
  EXPECT_GT(r.merged.report.outcome_covered, 0);
  EXPECT_FALSE(r.merged.test_cases.empty());
}

TEST(SupervisedFaultTest, SlowLaneDelaysButDoesNotDiverge) {
  auto cm = Compile("AFC");
  const SupervisedCampaignResult clean = RunSupervised(*cm, 5, 2, 400);
  support::FaultInjector inj;
  inj.events().push_back(support::FaultEvent{support::FaultKind::kSlowLane, /*lane=*/1,
                                             /*at=*/90, /*param=*/200, false, false});
  const SupervisedCampaignResult faulted = RunSupervised(*cm, 5, 2, 400, nullptr, &inj);
  EXPECT_EQ(faulted.crashes, 0U);
  ExpectSameCampaign(clean.merged, faulted.merged);
}

// -- Live views -------------------------------------------------------------
// One driver serves both transports, so /profile and /status must not care
// whether lanes are threads or processes.

obs::CampaignProfile FinalProfile(CompiledModel& cm, bool isolated) {
  obs::ProfilePublisher pub;
  FuzzerOptions options;
  options.seed = 7;
  options.profile_publisher = &pub;
  if (isolated) {
    SupervisorOptions sup;
    sup.num_workers = 2;
    sup.sync_every = 64;
    Supervisor(cm.instrumented(), cm.spec(), options, sup).Run(ExecBudget(900));
  } else {
    ParallelOptions par;
    par.num_workers = 2;
    par.sync_every = 64;
    ParallelFuzzer(cm.instrumented(), cm.spec(), options, par).Run(ExecBudget(900));
  }
  auto parsed = obs::ParseCampaignProfile(pub.Snapshot());
  EXPECT_TRUE(parsed.ok()) << parsed.message();
  return parsed.ok() ? parsed.take() : obs::CampaignProfile{};
}

TEST(SupervisedLiveViewTest, IsolatedCampaignPublishesTheThreadedProfile) {
  auto cm = Compile("TCP");
  const obs::CampaignProfile threaded = FinalProfile(*cm, /*isolated=*/false);
  const obs::CampaignProfile isolated = FinalProfile(*cm, /*isolated=*/true);
  EXPECT_GT(isolated.vm_dispatches, 0U);
  EXPECT_EQ(isolated.vm_dispatches, threaded.vm_dispatches);
  EXPECT_EQ(isolated.vm_steps, threaded.vm_steps);
}

TEST(SupervisedLiveViewTest, StatusBoardSeesMidRoundLaneProgress) {
  auto cm = Compile("AFC");
  obs::CampaignStatusBoard board;
  obs::CampaignInfo info;
  info.workers = 2;
  board.BeginCampaign(info);
  // Lane 1 holds its second round's reply back for 800 ms. Barrier stamps
  // only ever show 8 seeds plus a multiple of sync_every (64); any other
  // count on the board was relayed from the child while the supervisor
  // waited.
  support::FaultInjector inj;
  inj.events().push_back(support::FaultEvent{support::FaultKind::kSlowLane, /*lane=*/1,
                                             /*at=*/90, /*param=*/800, false, false});
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> seen;
  std::thread poller([&] {
    while (!stop.load()) {
      seen.push_back(board.WorkerExecutions(1));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  FuzzerOptions options;
  options.seed = 5;
  options.status_board = &board;
  SupervisorOptions sup;
  sup.num_workers = 2;
  sup.sync_every = 64;
  sup.faults = &inj;
  const SupervisedCampaignResult r =
      Supervisor(cm->instrumented(), cm->spec(), options, sup).Run(ExecBudget(400));
  stop = true;
  poller.join();
  EXPECT_EQ(r.crashes, 0U);
  EXPECT_TRUE(std::any_of(seen.begin(), seen.end(),
                          [](std::uint64_t e) { return e > 8 && (e - 8) % 64 != 0; }))
      << "only barrier counts reached the board";
}

}  // namespace
}  // namespace cftcg::fuzz
