// Campaign self-profiler: aggregation and export over the VM plane
// (vm::ExecProfile + Program block attribution) and the phase plane
// (PhaseProfile lap accounting).
//
// The raw buffers are deliberately dumb counters owned by the fuzz/vm
// layers; everything here is pure aggregation over finished (or snapshotted)
// counters, so it can run off the hot path — at heartbeats, at campaign end,
// or offline over a saved profile.json. Three export surfaces:
//
//   * CampaignProfile::ToJson()    — the profile.json artifact (round-trips
//                                    through ParseCampaignProfile for diffs);
//   * CampaignProfile::ToFolded()  — Brendan-Gregg folded-stack lines, one
//                                    `frame;frame value` per line, ready for
//                                    flamegraph.pl / speedscope;
//   * CampaignProfile::RenderText()— the `cftcg profile` terminal view.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"
#include "support/status.hpp"
#include "vm/profile.hpp"
#include "vm/program.hpp"

namespace cftcg::obs {

// ---------------------------------------------------------------------------
// Phase plane.

/// Fixed campaign phase taxonomy. The order is the serialization order (JSON,
/// checkpoints) — append only.
enum class ProfilePhase : int {
  kLoad = 0,        // model parse + schedule + lowering
  kAnalyze,         // static analyzer pass
  kMutate,          // test-case mutation / generation
  kExecute,         // VM dispatch (Machine::Step)
  kCoverageUpdate,  // coverage map diffing + corpus admission
  kCorpusSync,      // parallel cross-worker corpus exchange
  kCheckpoint,      // durability: checkpoint serialization + write
  kReport,          // final report / CSV / trace flush
  kIdle,            // barrier wait: worker finished its round early
};
inline constexpr int kNumProfilePhases = 9;

std::string_view ProfilePhaseName(ProfilePhase phase);

/// Cumulative per-phase wall time for one worker (or one merged campaign).
struct PhaseProfile {
  std::array<double, kNumProfilePhases> seconds{};
  std::array<std::uint64_t, kNumProfilePhases> laps{};

  void Add(ProfilePhase phase, double s) {
    seconds[static_cast<std::size_t>(phase)] += s;
    ++laps[static_cast<std::size_t>(phase)];
  }
  void MergeFrom(const PhaseProfile& other) {
    for (int i = 0; i < kNumProfilePhases; ++i) {
      seconds[static_cast<std::size_t>(i)] += other.seconds[static_cast<std::size_t>(i)];
      laps[static_cast<std::size_t>(i)] += other.laps[static_cast<std::size_t>(i)];
    }
  }
  [[nodiscard]] double Total() const {
    double total = 0;
    for (double s : seconds) total += s;
    return total;
  }
};

/// Lap-model phase ticker: one clock read per phase boundary instead of a
/// begin/end pair per phase. The caller Arm()s at the top of a work loop and
/// Lap(phase)s after each segment; the elapsed time since the previous mark
/// books to that phase. A null sink disarms the ticker entirely (no clock
/// reads), which is how the hot fuzz loop stays free when --profile is off.
class PhaseLapTimer {
 public:
  explicit PhaseLapTimer(PhaseProfile* sink) : sink_(sink) {}

  [[nodiscard]] bool active() const { return sink_ != nullptr; }

  void Arm() {
    if (sink_ != nullptr) last_ = Clock::Now();
  }
  void Lap(ProfilePhase phase) {
    if (sink_ == nullptr) return;
    const Clock::TimePoint now = Clock::Now();
    sink_->Add(phase, Clock::SecondsBetween(last_, now));
    last_ = now;
  }

 private:
  PhaseProfile* sink_ = nullptr;
  Clock::TimePoint last_{};
};

// ---------------------------------------------------------------------------
// Aggregated artifact.

struct ProfileBlockRow {
  std::string name;  // block path, or "(glue)" for scheduler glue
  std::uint64_t dispatches = 0;
  double dispatch_pct = 0;  // share of total dispatches
};

struct ProfileOpcodeRow {
  std::string name;
  std::uint64_t dispatches = 0;
  double dispatch_pct = 0;
};

struct ProfilePhaseRow {
  std::string name;
  double seconds = 0;
  std::uint64_t laps = 0;
  double pct = 0;  // share of accounted phase time
};

/// One campaign's complete self-profile. Built by BuildCampaignProfile from
/// live counters or parsed back from profile.json for render/diff.
struct CampaignProfile {
  // Metadata (filled by the caller; empty/zero when unknown).
  std::string model;
  std::string mode;
  std::uint64_t seed = 0;
  int workers = 1;
  double elapsed_s = 0;

  // VM plane.
  std::uint64_t vm_steps = 0;       // Machine::Step calls (model iterations)
  std::uint64_t vm_dispatches = 0;  // instruction dispatches (Σ block rows)
  std::vector<ProfileBlockRow> blocks;    // sorted by dispatches, descending
  std::vector<ProfileOpcodeRow> opcodes;  // sorted by dispatches, descending

  // Phase plane.
  std::vector<ProfilePhaseRow> phases;  // taxonomy order, zero rows included

  [[nodiscard]] std::string ToJson() const;
  [[nodiscard]] std::string ToFolded() const;
  [[nodiscard]] std::string RenderText() const;
};

/// Parses a profile.json document written by CampaignProfile::ToJson.
Result<CampaignProfile> ParseCampaignProfile(std::string_view json_text);

/// Terminal diff of two saved profiles (bench regression triage): phase-time
/// and hot-block deltas, base -> current.
std::string RenderProfileDiff(const CampaignProfile& base, const CampaignProfile& current);

/// Folds raw VM counters against the program's block attribution and joins
/// the phase plane. Metadata fields (model/mode/seed/workers/elapsed_s) are
/// left for the caller to fill.
CampaignProfile BuildCampaignProfile(const vm::Program& program, const vm::ExecProfile& exec,
                                     const PhaseProfile& phases);

// ---------------------------------------------------------------------------
// Live publication (the /profile endpoint).

/// Hand-off point between the campaign driver and the monitor's HTTP thread:
/// the driver publishes a rendered JSON snapshot at safe points (heartbeats,
/// sync barriers, campaign end); readers get the last published document.
/// Never blocks the hot loop — publishing is one string swap under a mutex.
class ProfilePublisher {
 public:
  void Publish(std::string json) {
    const std::lock_guard<std::mutex> lock(mu_);
    json_ = std::move(json);
  }
  /// Last published snapshot; empty string when nothing published yet.
  [[nodiscard]] std::string Snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return json_;
  }

 private:
  mutable std::mutex mu_;
  std::string json_;
};

}  // namespace cftcg::obs
