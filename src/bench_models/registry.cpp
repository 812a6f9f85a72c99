#include "bench_models/bench_models.hpp"

#include "parser/model_io.hpp"

namespace cftcg::bench_models {

const std::vector<BenchModelInfo>& Roster() {
  static const std::vector<BenchModelInfo> kRoster = {
      {"CPUTask", "AutoSAR CPU task dispatch system"},
      {"AFC", "Engine air-fuel control system"},
      {"TCP", "TCP three-way handshake protocol"},
      {"RAC", "Robotic arm controller"},
      {"EVCS", "Electric vehicle charging system"},
      {"TWC", "Train wheel speed controller"},
      {"UTPC", "Underwater thruster power control"},
      {"SolarPV", "Solar PV panel output control"},
  };
  return kRoster;
}

Result<std::unique_ptr<ir::Model>> Build(const std::string& name) {
  const std::string_view text = Source(name);
  if (text.empty()) return Status::Error("unknown benchmark model: " + name);
  return parser::LoadModel(std::string(text));
}

}  // namespace cftcg::bench_models
