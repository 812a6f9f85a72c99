// Standalone HTML coverage report — the analogue of Simulink's model
// coverage report: per-decision outcome tables, per-condition polarities,
// and per-condition MCDC status, with summary tiles on top.
//
// Also hosts the campaign explorer (`cftcg explain`): an HTML view over a
// campaign's provenance trace — per-block first-hit heatmap, time-to-
// objective timeline, strategy credit, corpus genealogy, and residual
// (uncovered) objectives with best-observed margin distances.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/report.hpp"
#include "coverage/sink.hpp"

namespace cftcg::coverage {

/// Renders a self-contained HTML document (no external assets).
std::string RenderHtmlReport(const std::string& title, const CoverageSpec& spec,
                             const DynamicBitset& total,
                             const std::vector<std::unordered_set<std::uint64_t>>& evals);

/// Convenience overload from a sink's cumulative state.
std::string RenderHtmlReport(const std::string& title, const CoverageSink& sink);

/// One covered objective with its first-hit provenance (from an `objective`
/// trace event / provenance snapshot).
struct ExplorerObjective {
  std::string kind;   // decision_outcome | condition_true | condition_false | mcdc_pair
  std::string name;   // block path of the decision/condition
  std::string chain;  // ">"-joined Table 1 strategy lineage ("seed", "bytes", …)
  int outcome = -1;
  int slot = -1;
  std::uint64_t iteration = 0;
  double time_s = 0;
  std::int64_t entry_id = -1;  // discovering corpus entry; -1 = not retained
  int lane = 0;                // campaign lane whose corpus entry_id names
};

/// One corpus admission (from a `corpus` trace event). Ids are per lane.
struct ExplorerCorpusEntry {
  std::int64_t id = -1;
  std::int64_t parent = -1;  // -1 = root (seed or import)
  std::uint64_t depth = 0;
  std::string chain;
  double time_s = 0;
  double metric = 0;
  std::uint64_t new_slots = 0;
  int lane = 0;
};

/// One uncovered decision outcome (from a `residual` trace event).
struct ExplorerResidual {
  std::string name;  // "<block path>[outcome]"
  int decision = -1;
  int outcome = -1;
  double distance = 0;     // best observed distance-to-flip
  bool unreached = false;  // decision never even evaluated
  /// Static-analyzer justification: the objective is proved unreachable, so
  /// the miss is expected rather than a fuzzing shortfall.
  bool justified = false;
  std::string reason;  // analyzer's reason; empty when not justified
};

/// One objective's dependence slice joined from the static analyzer
/// (`cftcg explain --model model.cmx`): which root inports can influence
/// the objective, and how large its supporting block cone is.
struct ExplorerSlice {
  int slot = -1;
  std::string name;     // objective name (analysis::SlotNames spelling)
  std::string inports;  // comma-joined influencing inport names ("-" = none)
  int component = -1;   // independence-partition id
  std::size_t cone_blocks = 0;
  bool covered = false;  // joined against the trace's first-hit slots
};

/// One hot-block row joined from a campaign self-profile (profile.json).
struct ExplorerProfileBlock {
  std::string name;
  std::uint64_t dispatches = 0;
  double dispatch_pct = 0;  // share of all VM instruction dispatches
};

/// One phase-plane row joined from a campaign self-profile.
struct ExplorerProfilePhase {
  std::string name;
  double seconds = 0;
  double pct = 0;  // share of accounted phase time
};

/// Everything the campaign explorer page needs, decoded from a trace by the
/// caller (the CLI joins trace + metrics snapshot; coverage stays free of
/// the obs JSON reader).
struct CampaignExplorerData {
  std::string title;
  double elapsed_s = 0;
  std::uint64_t executions = 0;
  std::size_t objectives_total = 0;  // covered + uncovered objective count
  std::size_t malformed_lines = 0;   // skipped while reading the trace
  std::vector<ExplorerObjective> objectives;
  std::vector<ExplorerCorpusEntry> corpus;
  std::vector<ExplorerResidual> residuals;
  // Dependence-slice join (`cftcg explain --model model.cmx`); empty when no
  // model was supplied — the section is simply omitted.
  std::vector<ExplorerSlice> slices;
  // Self-profile join (`cftcg explain --profile profile.json`); empty when
  // no profile was supplied — the section is simply omitted.
  std::vector<ExplorerProfileBlock> profile_blocks;
  std::vector<ExplorerProfilePhase> profile_phases;
  std::uint64_t profile_dispatches = 0;
};

/// Renders the self-contained campaign explorer HTML document.
std::string RenderCampaignExplorer(const CampaignExplorerData& data);

}  // namespace cftcg::coverage
