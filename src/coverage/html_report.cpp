#include "coverage/html_report.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "support/strings.hpp"

namespace cftcg::coverage {

namespace {

const char* kStyle = R"(
<style>
  body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
  h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
  .tiles { display: flex; gap: 1em; }
  .tile { border: 1px solid #ccc; border-radius: 6px; padding: 0.8em 1.2em; }
  .tile .pct { font-size: 1.6em; font-weight: 600; }
  table { border-collapse: collapse; margin-top: 0.6em; }
  th, td { border: 1px solid #ddd; padding: 0.25em 0.6em; font-size: 0.9em; }
  th { background: #f5f5f5; text-align: left; }
  .hit { background: #e6f4e6; }
  .miss { background: #fbe7e7; }
  .just { background: #e8eaf6; color: #555; font-style: italic; }
  code { font-family: ui-monospace, monospace; }
  .heat0 { background: #1a9850; color: #fff; }
  .heat1 { background: #91cf60; }
  .heat2 { background: #fee08b; }
  .heat3 { background: #fc8d59; }
  .heat4 { background: #d73027; color: #fff; }
  .bar { background: #4a90d9; height: 0.7em; display: inline-block; }
  ul.tree { list-style: none; padding-left: 1.2em; border-left: 1px dotted #bbb; }
  .warn { color: #a33; }
</style>
)";

std::string Cell(bool covered, const char* label) {
  return StrFormat("<td class=\"%s\">%s</td>", covered ? "hit" : "miss", label);
}

}  // namespace

std::string RenderHtmlReport(const std::string& title, const CoverageSpec& spec,
                             const DynamicBitset& total,
                             const std::vector<std::unordered_set<std::uint64_t>>& evals) {
  const MetricReport report = ComputeReportFrom(spec, total, evals);
  std::string html = "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>" +
                     XmlEscape(title) + "</title>" + kStyle + "</head><body>\n";
  html += "<h1>Model coverage — " + XmlEscape(title) + "</h1>\n";

  html += "<div class=\"tiles\">\n";
  html += StrFormat(
      "<div class=\"tile\"><div class=\"pct\">%.1f%%</div>Decision<br>%d / %d outcomes</div>\n",
      report.DecisionPct(), report.outcome_covered, report.outcome_total);
  html += StrFormat(
      "<div class=\"tile\"><div class=\"pct\">%.1f%%</div>Condition<br>%d / %d polarities</div>\n",
      report.ConditionPct(), report.condition_polarity_covered, report.condition_polarity_total);
  html += StrFormat(
      "<div class=\"tile\"><div class=\"pct\">%.1f%%</div>MCDC<br>%d / %d conditions</div>\n",
      report.McdcPct(), report.mcdc_covered, report.mcdc_total);
  html += "</div>\n";

  html += "<h2>Decisions</h2>\n<table><tr><th>Decision</th><th>Outcomes</th></tr>\n";
  for (const auto& d : spec.decisions()) {
    html += "<tr><td><code>" + XmlEscape(d.name) + "</code></td><td><table><tr>";
    for (int k = 0; k < d.num_outcomes; ++k) {
      const bool covered = total.Test(static_cast<std::size_t>(spec.OutcomeSlot(d.id, k)));
      html += Cell(covered, StrFormat("[%d]", k).c_str());
    }
    html += "</tr></table></td></tr>\n";
  }
  html += "</table>\n";

  html += "<h2>Conditions</h2>\n<table><tr><th>Condition</th><th>T</th><th>F</th><th>MCDC</th></tr>\n";
  for (const auto& c : spec.conditions()) {
    const bool t = total.Test(static_cast<std::size_t>(spec.ConditionTrueSlot(c.id)));
    const bool f = total.Test(static_cast<std::size_t>(spec.ConditionFalseSlot(c.id)));
    std::string mcdc_cell = "<td>—</td>";
    if (c.decision >= 0 && c.index_in_decision < 24) {
      const auto& set = evals[static_cast<std::size_t>(c.decision)];
      const bool independent = !set.empty() && HasIndependencePair(set, c.index_in_decision);
      mcdc_cell = Cell(independent, independent ? "pair" : "no pair");
    }
    html += "<tr><td><code>" + XmlEscape(c.name) + "</code></td>" + Cell(t, "true") +
            Cell(f, "false") + mcdc_cell + "</tr>\n";
  }
  html += "</table>\n</body></html>\n";
  return html;
}

std::string RenderHtmlReport(const std::string& title, const CoverageSink& sink) {
  return RenderHtmlReport(title, sink.spec(), sink.total(), sink.evals());
}

namespace {

/// Heat bucket for a first-hit time relative to the campaign length: early
/// hits render green (cheap objectives), late ones red (the hard tail).
const char* HeatClass(double time_s, double elapsed_s) {
  if (elapsed_s <= 0) return "heat0";
  const double f = time_s / elapsed_s;
  if (f < 0.05) return "heat0";
  if (f < 0.2) return "heat1";
  if (f < 0.5) return "heat2";
  if (f < 0.8) return "heat3";
  return "heat4";
}

std::string ShortKind(const std::string& kind) {
  if (kind == "decision_outcome") return "D";
  if (kind == "condition_true") return "C+";
  if (kind == "condition_false") return "C-";
  if (kind == "mcdc_pair") return "M";
  return "?";
}

/// Strips the "[k]" outcome suffix residual names carry so residuals group
/// under the same block row as covered objectives.
std::string ResidualBlock(const std::string& name) {
  const std::size_t bracket = name.rfind('[');
  return bracket == std::string::npos ? name : name.substr(0, bracket);
}

}  // namespace

std::string RenderCampaignExplorer(const CampaignExplorerData& data) {
  std::string html = "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>" +
                     XmlEscape(data.title) + "</title>" + kStyle + "</head><body>\n";
  html += "<h1>Campaign explorer — " + XmlEscape(data.title) + "</h1>\n";

  // --- Summary tiles -------------------------------------------------------
  const std::size_t covered = data.objectives.size();
  const std::size_t total =
      data.objectives_total > 0 ? data.objectives_total : covered + data.residuals.size();
  const double pct = total > 0 ? 100.0 * static_cast<double>(covered) / static_cast<double>(total)
                               : 0.0;
  html += "<div class=\"tiles\">\n";
  html += StrFormat(
      "<div class=\"tile\"><div class=\"pct\">%.1f%%</div>Objectives<br>%zu / %zu first-hit</div>\n",
      pct, covered, total);
  html += StrFormat("<div class=\"tile\"><div class=\"pct\">%zu</div>Corpus entries</div>\n",
                    data.corpus.size());
  html += StrFormat("<div class=\"tile\"><div class=\"pct\">%zu</div>Residual objectives</div>\n",
                    data.residuals.size());
  html += StrFormat(
      "<div class=\"tile\"><div class=\"pct\">%.1fs</div>Campaign<br>%llu executions</div>\n",
      data.elapsed_s, static_cast<unsigned long long>(data.executions));
  html += "</div>\n";
  if (data.malformed_lines > 0) {
    html += StrFormat("<p class=\"warn\">%zu malformed trace line(s) skipped.</p>\n",
                      data.malformed_lines);
  }

  // --- Per-block heatmap ---------------------------------------------------
  // One row per block path; each covered objective is a cell tinted by when
  // it was first hit, each residual outcome a red miss cell.
  std::map<std::string, std::vector<const ExplorerObjective*>> blocks;
  for (const auto& o : data.objectives) blocks[o.name].push_back(&o);
  std::map<std::string, std::vector<const ExplorerResidual*>> missing;
  for (const auto& r : data.residuals) missing[ResidualBlock(r.name)].push_back(&r);
  for (const auto& [name, residuals] : missing) {
    blocks.emplace(name, std::vector<const ExplorerObjective*>{});  // rows with only misses
    (void)residuals;
  }
  html += "<h2>Per-block first-hit heatmap</h2>\n";
  html += "<p>D = decision outcome, C± = condition polarity, M = MCDC pair; "
          "green = hit early, red = hit late, <span class=\"miss\">miss</span> = uncovered, "
          "<span class=\"just\">justified</span> = proved unreachable by static analysis.</p>\n";
  html += "<table><tr><th>Block</th><th>Objectives</th></tr>\n";
  for (const auto& [name, objectives] : blocks) {
    html += "<tr><td><code>" + XmlEscape(name) + "</code></td><td><table><tr>";
    for (const ExplorerObjective* o : objectives) {
      std::string label = ShortKind(o->kind);
      if (o->kind == "decision_outcome") label += StrFormat("[%d]", o->outcome);
      html += StrFormat("<td class=\"%s\" title=\"%.3fs iter %llu entry %lld\">%s</td>",
                        HeatClass(o->time_s, data.elapsed_s), o->time_s,
                        static_cast<unsigned long long>(o->iteration),
                        static_cast<long long>(o->entry_id), XmlEscape(label).c_str());
    }
    auto miss_it = missing.find(name);
    if (miss_it != missing.end()) {
      for (const ExplorerResidual* r : miss_it->second) {
        std::string dist =
            r->unreached ? "unreached" : StrFormat("best distance %.4g", r->distance);
        if (r->justified) dist = "justified: " + r->reason;
        html += StrFormat("<td class=\"%s\" title=\"%s\">D[%d]</td>",
                          r->justified ? "just" : "miss", XmlEscape(dist).c_str(), r->outcome);
      }
    }
    html += "</tr></table></td></tr>\n";
  }
  html += "</table>\n";

  // --- Hot-block execution heatmap (self-profile join) ---------------------
  // Where the campaign actually spent its VM work: dispatch share per block,
  // tinted hot (red) to cold (green).
  if (!data.profile_blocks.empty()) {
    html += "<h2>Hot-block execution heatmap</h2>\n";
    html += StrFormat(
        "<p>Campaign self-profile: %llu VM instruction dispatches; "
        "red = hot, green = cold.</p>\n",
        static_cast<unsigned long long>(data.profile_dispatches));
    html += "<table><tr><th>Block</th><th>Dispatches</th><th>Share</th><th></th></tr>\n";
    for (const auto& b : data.profile_blocks) {
      const char* heat = b.dispatch_pct >= 30 ? "heat4"
                         : b.dispatch_pct >= 15 ? "heat3"
                         : b.dispatch_pct >= 5  ? "heat2"
                         : b.dispatch_pct >= 1  ? "heat1"
                                                : "heat0";
      const int width = static_cast<int>(b.dispatch_pct / 100.0 * 240.0) + 1;
      html += StrFormat(
          "<tr><td><code>%s</code></td><td>%llu</td>"
          "<td class=\"%s\">%.1f%%</td>"
          "<td><div class=\"bar\" style=\"width:%dpx\"></div></td></tr>\n",
          XmlEscape(b.name).c_str(), static_cast<unsigned long long>(b.dispatches), heat,
          b.dispatch_pct, width);
    }
    html += "</table>\n";
  }
  if (!data.profile_phases.empty()) {
    html += "<h2>Phase time accounting</h2>\n";
    html += "<table><tr><th>Phase</th><th>Seconds</th><th>Share</th><th></th></tr>\n";
    for (const auto& p : data.profile_phases) {
      const int width = static_cast<int>(p.pct / 100.0 * 240.0) + 1;
      html += StrFormat(
          "<tr><td><code>%s</code></td><td>%.4f</td><td>%.1f%%</td>"
          "<td><div class=\"bar\" style=\"width:%dpx\"></div></td></tr>\n",
          XmlEscape(p.name).c_str(), p.seconds, p.pct, width);
    }
    html += "</table>\n";
  }

  // --- Time-to-objective timeline ------------------------------------------
  std::vector<const ExplorerObjective*> timeline;
  timeline.reserve(data.objectives.size());
  for (const auto& o : data.objectives) timeline.push_back(&o);
  std::sort(timeline.begin(), timeline.end(),
            [](const ExplorerObjective* a, const ExplorerObjective* b) {
              return a->time_s != b->time_s ? a->time_s < b->time_s
                                            : a->iteration < b->iteration;
            });
  html += "<h2>Time to objective</h2>\n";
  html += "<table><tr><th>Time</th><th></th><th>Objective</th><th>Iter</th><th>Entry</th>"
          "<th>Strategy chain</th></tr>\n";
  for (const ExplorerObjective* o : timeline) {
    const double frac = data.elapsed_s > 0 ? o->time_s / data.elapsed_s : 0;
    const int width = static_cast<int>(frac * 240.0) + 1;
    std::string label = XmlEscape(o->name) + " " + ShortKind(o->kind);
    if (o->kind == "decision_outcome") label += StrFormat("[%d]", o->outcome);
    html += StrFormat(
        "<tr><td>%.3fs</td><td><span class=\"bar\" style=\"width:%dpx\"></span></td>"
        "<td><code>%s</code></td><td>%llu</td><td>%lld</td><td><code>%s</code></td></tr>\n",
        o->time_s, width, label.c_str(), static_cast<unsigned long long>(o->iteration),
        static_cast<long long>(o->entry_id), XmlEscape(o->chain).c_str());
  }
  html += "</table>\n";

  // --- Influencing inports (dependence slices) -----------------------------
  // Joined from the static dependence analysis when a model was supplied:
  // for each objective, the root inports that can influence it at all. A
  // residual objective whose inport list is short tells the tester exactly
  // which inputs to think about.
  if (!data.slices.empty()) {
    html += "<h2>Influencing inports (dependence slices)</h2>\n";
    html += "<table><tr><th>Objective</th><th></th><th>Component</th>"
            "<th>Influencing inports</th><th>Cone blocks</th></tr>\n";
    for (const auto& s : data.slices) {
      html += StrFormat(
          "<tr><td><code>%s</code></td><td>%s</td><td>%d</td><td><code>%s</code></td>"
          "<td>%zu</td></tr>\n",
          XmlEscape(s.name).c_str(),
          s.covered ? "<span class=\"hit\">hit</span>" : "<span class=\"miss\">miss</span>",
          s.component, XmlEscape(s.inports).c_str(), s.cone_blocks);
    }
    html += "</table>\n";
  }

  // --- Strategy credit -----------------------------------------------------
  // Which Table 1 strategy chains discovered objectives, and how many corpus
  // admissions each chain produced.
  std::map<std::string, std::size_t> credit;
  for (const auto& o : data.objectives) ++credit[o.chain];
  std::map<std::string, std::size_t> admissions;
  for (const auto& e : data.corpus) ++admissions[e.chain];
  for (const auto& [chain, n] : admissions) {
    credit.emplace(chain, 0);  // chains that admitted entries but hit nothing new
    (void)n;
  }
  html += "<h2>Strategy credit</h2>\n";
  html += "<table><tr><th>Strategy chain</th><th>Objectives first-hit</th>"
          "<th>Corpus admissions</th></tr>\n";
  for (const auto& [chain, hits] : credit) {
    const auto adm = admissions.find(chain);
    html += StrFormat("<tr><td><code>%s</code></td><td>%zu</td><td>%zu</td></tr>\n",
                      XmlEscape(chain).c_str(), hits,
                      adm != admissions.end() ? adm->second : std::size_t{0});
  }
  html += "</table>\n";

  // --- Corpus genealogy ----------------------------------------------------
  html += "<h2>Corpus genealogy</h2>\n";
  if (data.corpus.empty()) {
    html += "<p>No corpus events in the trace (provenance disabled?).</p>\n";
  } else {
    // Entry ids are per lane, so the forest is keyed by (lane, id); each
    // lane's seeds (and imports) are roots.
    using Key = std::pair<int, std::int64_t>;
    std::map<Key, std::vector<const ExplorerCorpusEntry*>> children;
    std::map<Key, std::size_t> hits_by_entry;
    std::set<int> lanes;
    for (const auto& o : data.objectives) ++hits_by_entry[{o.lane, o.entry_id}];
    for (const auto& e : data.corpus) {
      children[{e.lane, e.parent}].push_back(&e);
      lanes.insert(e.lane);
    }
    // Iterative depth-first render of each lane's forest under parent −1.
    struct Frame {
      const std::vector<const ExplorerCorpusEntry*>* list;
      std::size_t next;
    };
    for (const int lane : lanes) {
      html += "<ul class=\"tree\">\n";
      std::vector<Frame> stack{{&children[{lane, -1}], 0}};
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next >= f.list->size()) {
          html += "</ul>\n";
          stack.pop_back();
          continue;
        }
        const ExplorerCorpusEntry* e = (*f.list)[f.next++];
        const auto hit = hits_by_entry.find({e->lane, e->id});
        const std::size_t n_hits = hit != hits_by_entry.end() ? hit->second : 0;
        const auto id = static_cast<long long>(e->id);
        html += StrFormat(
            "<li>%s <code>%s</code> — %.3fs, metric %.0f, +%llu slots%s</li>\n",
            (lanes.size() > 1 ? StrFormat("L%d#%lld", e->lane, id) : StrFormat("#%lld", id))
                .c_str(),
            XmlEscape(e->chain).c_str(), e->time_s, e->metric,
            static_cast<unsigned long long>(e->new_slots),
            n_hits > 0 ? StrFormat(", <b>%zu objective(s)</b>", n_hits).c_str() : "");
        auto kid = children.find({e->lane, e->id});
        if (kid != children.end() && !kid->second.empty()) {
          html += "<ul class=\"tree\">\n";
          stack.push_back({&kid->second, 0});
        }
      }
    }
  }

  // --- Residual objectives -------------------------------------------------
  html += "<h2>Residual objectives</h2>\n";
  if (data.residuals.empty()) {
    html += "<p>None — every decision outcome was covered.</p>\n";
  } else {
    std::size_t justified = 0;
    for (const auto& r : data.residuals) justified += r.justified ? 1 : 0;
    if (justified > 0) {
      html += StrFormat(
          "<p><span class=\"just\">justified</span> residuals (%zu of %zu) were proved "
          "unreachable by the static analyzer; they are expected misses, not fuzzing "
          "shortfalls.</p>\n",
          justified, data.residuals.size());
    }
    html += "<table><tr><th>Objective</th><th>Best observed distance</th>"
            "<th>Justification</th></tr>\n";
    for (const auto& r : data.residuals) {
      html += "<tr><td><code>" + XmlEscape(r.name) + "</code></td>" +
              (r.unreached ? std::string("<td class=\"miss\">unreached</td>")
                           : StrFormat("<td>%.6g</td>", r.distance)) +
              (r.justified ? "<td class=\"just\">" + XmlEscape(r.reason) + "</td>"
                           : std::string("<td></td>")) +
              "</tr>\n";
    }
    html += "</table>\n";
  }
  html += "</body></html>\n";
  return html;
}

}  // namespace cftcg::coverage
