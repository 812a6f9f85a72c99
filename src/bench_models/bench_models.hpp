// The eight benchmark models of the paper's Table 2, rebuilt from their
// descriptions:
//
//   CPUTask  — AutoSAR CPU task dispatch system (internal task queue whose
//              full state guards deep branches — §4's 37 s vs 44.5 h story)
//   AFC      — engine air-fuel control system
//   TCP      — TCP three-way handshake protocol (full connection FSM)
//   RAC      — robotic arm controller (4 joints + supervisor)
//   EVCS     — electric vehicle charging system
//   TWC      — train wheel speed controller (anti-slip)
//   UTPC     — underwater thruster power control
//   SolarPV  — solar PV panel output control (the paper's running example:
//              inports Enable:int8, Power:int32, PanelID:int32 — Figure 3)
//
// All are industrial-style discrete controllers: charts with internal
// state, conditional subsystems, saturations/dead zones, counters, mixed
// int8/int32/double inports (the width mix that defeats byte-blind
// mutation in Figure 8).
//
// Each model is defined once, as the committed models/<name>.cmx; the build
// embeds those texts byte for byte (see CMakeLists.txt here), so a model by
// name and the file of that name are the same model.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/model.hpp"
#include "support/status.hpp"

namespace cftcg::bench_models {

struct BenchModelInfo {
  std::string name;
  std::string functionality;
};

/// The Table 2 roster, in paper order.
const std::vector<BenchModelInfo>& Roster();

/// The embedded text of models/<name>.cmx ("CPUTask", ..., "SolarPV");
/// empty for a name not on the roster.
std::string_view Source(const std::string& name);

/// Parses the embedded text of a benchmark model by name.
Result<std::unique_ptr<ir::Model>> Build(const std::string& name);

}  // namespace cftcg::bench_models
