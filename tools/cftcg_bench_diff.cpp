// cftcg-bench-diff — the CI bench-gate comparator.
//
// Diffs two bench JSON artifacts (the JsonSink schema: {"bench":...,
// "results":[{"model":...,<metric>:...},...]}) and fails when the current
// run regresses past the allowed thresholds:
//
//   cftcg-bench-diff baseline.json current.json
//       [--metric vm_iters_per_s]     higher-is-better gated metric
//       [--max-regression-pct 30]     fail if current < baseline by more
//       [--max-overhead-pct 5]        cap on the median profile_overhead_pct
//
// The overhead cap is applied to the MEDIAN across models, not per model:
// profiling overhead is a property of the dispatch loop, so a real
// regression moves every model while scheduler noise moves one or two.
//
// Models present in only one file are reported but not gated (the roster may
// grow); exit 0 = within thresholds, 1 = regression, 2 = bad input. The
// printed table is the CI log artifact — every row shows its delta whether
// or not it trips the gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support/strings.hpp"

namespace {

using cftcg::StrFormat;
using cftcg::obs::JsonValue;

/// Decimals to print a metric with: rates as whole numbers, ratios such as
/// native_speedup with three places.
int Digits(double v) { return v >= 100 ? 0 : 3; }

/// model -> metric map for one artifact's `results` array.
std::map<std::string, const JsonValue*> IndexResults(const JsonValue& doc) {
  std::map<std::string, const JsonValue*> rows;
  const JsonValue* results = doc.Find("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray) return rows;
  for (const JsonValue& row : results->items) {
    const std::string model = row.StringOr("model", "");
    if (!model.empty()) rows.emplace(model, &row);
  }
  return rows;
}

bool LoadJson(const char* path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto parsed = cftcg::obs::ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path, parsed.message().c_str());
    return false;
  }
  *out = parsed.take();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* base_path = nullptr;
  const char* curr_path = nullptr;
  std::string metric = "vm_iters_per_s";
  double max_regression_pct = 30.0;
  double max_overhead_pct = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--metric") metric = next();
    else if (a == "--max-regression-pct") max_regression_pct = std::atof(next());
    else if (a == "--max-overhead-pct") max_overhead_pct = std::atof(next());
    else if (base_path == nullptr) base_path = argv[i];
    else if (curr_path == nullptr) curr_path = argv[i];
    else { base_path = nullptr; break; }
  }
  if (base_path == nullptr || curr_path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <current.json> [--metric NAME]\n"
                 "          [--max-regression-pct N] [--max-overhead-pct N]\n",
                 argv[0]);
    return 2;
  }

  JsonValue base_doc;
  JsonValue curr_doc;
  if (!LoadJson(base_path, &base_doc) || !LoadJson(curr_path, &curr_doc)) return 2;
  const auto base = IndexResults(base_doc);
  const auto curr = IndexResults(curr_doc);
  if (curr.empty()) {
    std::fprintf(stderr, "error: %s has no results rows\n", curr_path);
    return 2;
  }

  std::printf("bench gate: %s, fail below -%.0f%% on %s; profile overhead cap %.1f%%\n",
              curr_doc.StringOr("bench", "?").c_str(), max_regression_pct, metric.c_str(),
              max_overhead_pct);
  int failures = 0;
  std::vector<double> overheads;
  for (const auto& [model, row] : curr) {
    const double now = row->NumberOr(metric, NAN);
    // The count-plane overhead cap rides along when the artifact carries it
    // (bench_speed's profiled pass). Negative overhead is measurement noise.
    const double overhead = row->NumberOr("profile_overhead_pct", NAN);
    std::string overhead_note;
    if (std::isfinite(overhead)) {
      overheads.push_back(overhead);
      overhead_note = StrFormat("  overhead %+.1f%%", overhead);
    }
    const auto base_it = base.find(model);
    if (base_it == base.end()) {
      std::printf("  %-12s %12.*f  (no baseline row; not gated)%s\n", model.c_str(), Digits(now),
                  now, overhead_note.c_str());
      continue;
    }
    const double was = base_it->second->NumberOr(metric, NAN);
    if (!std::isfinite(now) || !std::isfinite(was) || was <= 0) {
      std::printf("  %-12s metric %s missing or non-positive; not gated\n", model.c_str(),
                  metric.c_str());
      continue;
    }
    const double delta_pct = 100.0 * (now - was) / was;
    const bool regressed = delta_pct < -max_regression_pct;
    std::printf("  %-12s %12.*f -> %12.*f  (%+.1f%%)%s%s\n", model.c_str(), Digits(was), was,
                Digits(now), now, delta_pct, overhead_note.c_str(),
                regressed ? "  REGRESSION" : "");
    if (regressed) ++failures;
  }
  if (!overheads.empty()) {
    std::sort(overheads.begin(), overheads.end());
    const std::size_t mid = overheads.size() / 2;
    const double median = overheads.size() % 2 != 0
                              ? overheads[mid]
                              : 0.5 * (overheads[mid - 1] + overheads[mid]);
    const bool over = median > max_overhead_pct;
    std::printf("  median profile overhead: %+.1f%% over %zu model(s) (cap %.1f%%)%s\n", median,
                overheads.size(), max_overhead_pct, over ? "  REGRESSION" : "");
    if (over) ++failures;
  }
  for (const auto& [model, row] : base) {
    (void)row;
    if (curr.find(model) == curr.end()) {
      std::printf("  %-12s present in baseline only (not gated)\n", model.c_str());
    }
  }
  if (failures > 0) {
    std::printf("bench gate: FAIL (%d regression(s))\n", failures);
    return 1;
  }
  std::printf("bench gate: OK (%zu model(s) within thresholds)\n", curr.size());
  return 0;
}
