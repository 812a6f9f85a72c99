#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace cftcg::obs {
namespace {

constexpr std::array<std::string_view, kNumProfilePhases> kPhaseNames = {
    "load",   "analyze",    "mutate",     "execute", "coverage-update",
    "corpus-sync", "checkpoint", "report", "idle",
};

std::string U64(std::uint64_t v) { return std::to_string(v); }

/// Rounded share in percent; 0 denominator -> 0.
double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

/// Recomputes derived percentages and canonical row order in place.
void FinishRows(CampaignProfile* p) {
  std::uint64_t total_dispatches = 0;
  for (const auto& b : p->blocks) total_dispatches += b.dispatches;
  p->vm_dispatches = total_dispatches;
  for (auto& b : p->blocks) b.dispatch_pct = Pct(b.dispatches, total_dispatches);
  for (auto& o : p->opcodes) o.dispatch_pct = Pct(o.dispatches, total_dispatches);

  // Deterministic order: hottest first, name as tiebreak.
  auto by_heat = [](const auto& a, const auto& b) {
    if (a.dispatches != b.dispatches) return a.dispatches > b.dispatches;
    return a.name < b.name;
  };
  std::sort(p->blocks.begin(), p->blocks.end(), by_heat);
  std::sort(p->opcodes.begin(), p->opcodes.end(), by_heat);

  double phase_total = 0;
  for (const auto& ph : p->phases) phase_total += ph.seconds;
  for (auto& ph : p->phases) {
    ph.pct = phase_total <= 0 ? 0.0 : 100.0 * ph.seconds / phase_total;
  }
}

std::string Fmt(const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

}  // namespace

std::string_view ProfilePhaseName(ProfilePhase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

CampaignProfile BuildCampaignProfile(const vm::Program& program, const vm::ExecProfile& exec,
                                     const PhaseProfile& phases) {
  CampaignProfile p;
  p.vm_steps = exec.steps;

  // Fold instruction counters by block (insn_block parallel to code; programs
  // built without attribution profile as all-glue) and by opcode.
  const bool attributed = program.insn_block.size() == program.code.size();
  const std::size_t num_blocks = program.block_names.size();
  std::vector<ProfileBlockRow> blocks(num_blocks + 1);  // + glue bucket
  for (std::size_t i = 0; i < num_blocks; ++i) blocks[i].name = program.block_names[i];
  blocks[num_blocks].name = "(glue)";
  std::map<std::string, ProfileOpcodeRow> opcodes;
  const std::size_t n = std::min(exec.insn_counts.size(), program.code.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t count = exec.insn_counts[i];
    if (count == 0) continue;
    std::size_t slot = num_blocks;  // glue
    if (attributed && program.insn_block[i] >= 0 &&
        static_cast<std::size_t>(program.insn_block[i]) < num_blocks) {
      slot = static_cast<std::size_t>(program.insn_block[i]);
    }
    blocks[slot].dispatches += count;
    auto& op = opcodes[std::string(vm::OpName(program.code[i].op))];
    op.dispatches += count;
  }
  for (auto& b : blocks) {
    if (b.dispatches != 0) p.blocks.push_back(std::move(b));
  }
  for (auto& [name, row] : opcodes) {
    row.name = name;
    p.opcodes.push_back(std::move(row));
  }

  p.phases.reserve(kNumProfilePhases);
  for (int i = 0; i < kNumProfilePhases; ++i) {
    ProfilePhaseRow row;
    row.name = std::string(kPhaseNames[static_cast<std::size_t>(i)]);
    row.seconds = phases.seconds[static_cast<std::size_t>(i)];
    row.laps = phases.laps[static_cast<std::size_t>(i)];
    p.phases.push_back(std::move(row));
  }

  FinishRows(&p);
  return p;
}

std::string CampaignProfile::ToJson() const {
  std::string out = "{\"cftcg_profile\":1";
  out += ",\"model\":\"" + JsonEscape(model) + "\"";
  out += ",\"mode\":\"" + JsonEscape(mode) + "\"";
  out += ",\"seed\":" + U64(seed);
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"elapsed_s\":" + JsonNumber(elapsed_s);
  out += ",\"vm_steps\":" + U64(vm_steps);
  out += ",\"vm_dispatches\":" + U64(vm_dispatches);
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(phases[i].name) + "\",\"seconds\":" +
           JsonNumber(phases[i].seconds) + ",\"laps\":" + U64(phases[i].laps) + "}";
  }
  out += "],\"blocks\":[";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(blocks[i].name) +
           "\",\"dispatches\":" + U64(blocks[i].dispatches) + "}";
  }
  out += "],\"opcodes\":[";
  for (std::size_t i = 0; i < opcodes.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(opcodes[i].name) +
           "\",\"dispatches\":" + U64(opcodes[i].dispatches) + "}";
  }
  out += "]}\n";
  return out;
}

Result<CampaignProfile> ParseCampaignProfile(std::string_view json_text) {
  Result<JsonValue> doc = ParseJson(json_text);
  if (!doc.ok()) return doc.status();
  const JsonValue& root = doc.value();
  if (root.kind != JsonValue::Kind::kObject || root.Find("cftcg_profile") == nullptr) {
    return Status::Error("not a cftcg profile document (missing \"cftcg_profile\" marker)");
  }
  CampaignProfile p;
  p.model = root.StringOr("model", "");
  p.mode = root.StringOr("mode", "");
  p.seed = static_cast<std::uint64_t>(root.NumberOr("seed", 0));
  p.workers = static_cast<int>(root.NumberOr("workers", 1));
  p.elapsed_s = root.NumberOr("elapsed_s", 0);
  p.vm_steps = static_cast<std::uint64_t>(root.NumberOr("vm_steps", 0));
  if (const JsonValue* phases = root.Find("phases");
      phases != nullptr && phases->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& item : phases->items) {
      ProfilePhaseRow row;
      row.name = item.StringOr("name", "");
      row.seconds = item.NumberOr("seconds", 0);
      row.laps = static_cast<std::uint64_t>(item.NumberOr("laps", 0));
      p.phases.push_back(std::move(row));
    }
  }
  if (const JsonValue* blocks = root.Find("blocks");
      blocks != nullptr && blocks->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& item : blocks->items) {
      ProfileBlockRow row;
      row.name = item.StringOr("name", "");
      row.dispatches = static_cast<std::uint64_t>(item.NumberOr("dispatches", 0));
      p.blocks.push_back(std::move(row));
    }
  }
  if (const JsonValue* ops = root.Find("opcodes");
      ops != nullptr && ops->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& item : ops->items) {
      ProfileOpcodeRow row;
      row.name = item.StringOr("name", "");
      row.dispatches = static_cast<std::uint64_t>(item.NumberOr("dispatches", 0));
      p.opcodes.push_back(std::move(row));
    }
  }
  FinishRows(&p);
  return p;
}

std::string CampaignProfile::ToFolded() const {
  std::string out;
  double phase_total = 0;
  double execute_s = 0;
  for (const auto& ph : phases) {
    phase_total += ph.seconds;
    if (ph.name == "execute") execute_s = ph.seconds;
  }
  auto usec = [](double s) { return static_cast<std::uint64_t>(s * 1e6 + 0.5); };

  if (phase_total > 0) {
    // Timed campaign: phase rows in microseconds; the execute phase is
    // subdivided per block by dispatch share when dispatches were counted.
    for (const auto& ph : phases) {
      if (ph.seconds <= 0 || ph.name == "execute") continue;
      out += "cftcg;" + ph.name + " " + U64(usec(ph.seconds)) + "\n";
    }
    if (execute_s > 0) {
      if (vm_dispatches > 0) {
        for (const auto& b : blocks) {
          if (b.dispatches == 0) continue;
          const double share = execute_s * static_cast<double>(b.dispatches) /
                               static_cast<double>(vm_dispatches);
          out += "cftcg;execute;" + b.name + " " + U64(usec(share)) + "\n";
        }
      } else {
        out += "cftcg;execute " + U64(usec(execute_s)) + "\n";
      }
    }
  } else {
    // Count-only profile (no phase timing): weight frames by dispatch count.
    for (const auto& b : blocks) {
      if (b.dispatches == 0) continue;
      out += "vm;" + b.name + " " + U64(b.dispatches) + "\n";
    }
  }
  return out;
}

std::string CampaignProfile::RenderText() const {
  std::string out;
  out += "campaign profile";
  if (!model.empty()) out += ": " + model;
  if (!mode.empty()) out += " [" + mode + "]";
  out += "\n";
  out += Fmt("  workers=%d seed=%" PRIu64 " elapsed=%.3fs\n", workers, seed, elapsed_s);
  out += Fmt("  vm: %" PRIu64 " steps, %" PRIu64 " dispatches", vm_steps, vm_dispatches);
  if (vm_steps > 0) {
    out += Fmt(" (%.1f insns/iteration)",
               static_cast<double>(vm_dispatches) / static_cast<double>(vm_steps));
  }
  out += "\n";

  double phase_total = 0;
  for (const auto& ph : phases) phase_total += ph.seconds;
  if (phase_total > 0) {
    out += "phases:\n";
    for (const auto& ph : phases) {
      if (ph.seconds <= 0 && ph.laps == 0) continue;
      out += Fmt("  %-16s %10.3fs %5.1f%%  (%" PRIu64 " laps)\n", ph.name.c_str(), ph.seconds,
                 ph.pct, ph.laps);
    }
  }
  if (!blocks.empty()) {
    out += "hot blocks (by dispatch count";
    if (phase_total > 0) out += "; profile.folded splits execute time by this share";
    out += "):\n";
    std::size_t shown = 0;
    for (const auto& b : blocks) {
      if (shown++ == 20) {
        out += Fmt("  ... %zu more\n", blocks.size() - 20);
        break;
      }
      out += Fmt("  %-40s %12" PRIu64 " %5.1f%%\n", b.name.c_str(), b.dispatches,
                 b.dispatch_pct);
    }
  }
  if (!opcodes.empty()) {
    out += "hot opcodes:\n";
    std::size_t shown = 0;
    for (const auto& o : opcodes) {
      if (shown++ == 10) break;
      out += Fmt("  %-16s %12" PRIu64 " %5.1f%%\n", o.name.c_str(), o.dispatches, o.dispatch_pct);
    }
  }
  return out;
}

std::string RenderProfileDiff(const CampaignProfile& base, const CampaignProfile& current) {
  std::string out;
  out += "profile diff (base -> current)\n";
  auto rate = [](const CampaignProfile& p) {
    return p.elapsed_s > 0 ? static_cast<double>(p.vm_steps) / p.elapsed_s : 0.0;
  };
  out += Fmt("  elapsed:    %.3fs -> %.3fs\n", base.elapsed_s, current.elapsed_s);
  out += Fmt("  vm steps:   %" PRIu64 " -> %" PRIu64 "\n", base.vm_steps, current.vm_steps);
  out += Fmt("  dispatches: %" PRIu64 " -> %" PRIu64 "\n", base.vm_dispatches,
             current.vm_dispatches);
  const double rb = rate(base);
  const double rc = rate(current);
  if (rb > 0 && rc > 0) {
    out += Fmt("  iter rate:  %.0f/s -> %.0f/s (%+.1f%%)\n", rb, rc, 100.0 * (rc - rb) / rb);
  }

  // Phase deltas (taxonomy union, base order first).
  std::map<std::string, std::pair<double, double>> phase_s;
  std::vector<std::string> phase_order;
  for (const auto& ph : base.phases) {
    if (phase_s.emplace(ph.name, std::make_pair(ph.seconds, 0.0)).second) {
      phase_order.push_back(ph.name);
    }
  }
  for (const auto& ph : current.phases) {
    auto [it, inserted] = phase_s.emplace(ph.name, std::make_pair(0.0, ph.seconds));
    if (inserted) {
      phase_order.push_back(ph.name);
    } else {
      it->second.second = ph.seconds;
    }
  }
  bool any = false;
  for (const auto& name : phase_order) {
    const auto [b, c] = phase_s[name];
    if (b <= 0 && c <= 0) continue;
    if (!any) {
      out += "  phase time:\n";
      any = true;
    }
    out += Fmt("    %-16s %9.3fs -> %9.3fs (%+.3fs)\n", name.c_str(), b, c, c - b);
  }

  // Block share deltas over the union of both top-10s.
  std::map<std::string, std::pair<double, double>> block_pct;
  for (std::size_t i = 0; i < base.blocks.size() && i < 10; ++i) {
    block_pct[base.blocks[i].name].first = base.blocks[i].dispatch_pct;
  }
  for (std::size_t i = 0; i < current.blocks.size() && i < 10; ++i) {
    block_pct[current.blocks[i].name].second = current.blocks[i].dispatch_pct;
  }
  // Fill in the other side's share for union members outside its top-10.
  for (const auto& b : base.blocks) {
    auto it = block_pct.find(b.name);
    if (it != block_pct.end() && it->second.first == 0) it->second.first = b.dispatch_pct;
  }
  for (const auto& b : current.blocks) {
    auto it = block_pct.find(b.name);
    if (it != block_pct.end() && it->second.second == 0) it->second.second = b.dispatch_pct;
  }
  if (!block_pct.empty()) {
    out += "  hot-block dispatch share:\n";
    for (const auto& [name, shares] : block_pct) {
      out += Fmt("    %-40s %5.1f%% -> %5.1f%% (%+.1f)\n", name.c_str(), shares.first,
                 shares.second, shares.second - shares.first);
    }
  }
  return out;
}

}  // namespace cftcg::obs
