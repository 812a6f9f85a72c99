#include "obs/prometheus.hpp"

#include <cmath>

#include "support/strings.hpp"

namespace cftcg::obs {

namespace {

/// Prometheus sample-value syntax: Go strconv floats plus the literal
/// tokens +Inf / -Inf / NaN (exposition format 0.0.4).
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  // The range check first: casting a double past long long's range is
  // undefined.
  if (std::fabs(v) < 1e15 && v == static_cast<double>(static_cast<long long>(v))) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.17g", v);
}

void AppendHeader(std::string* out, const std::string& prom_name,
                  std::string_view source_name, const char* type) {
  out->append(StrFormat("# HELP %s cftcg metric %.*s\n", prom_name.c_str(),
                        static_cast<int>(source_name.size()), source_name.data()));
  out->append(StrFormat("# TYPE %s %s\n", prom_name.c_str(), type));
}

}  // namespace

std::string PrometheusName(std::string_view name) {
  std::string out = "cftcg_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string RenderPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = PrometheusName(c.name) + "_total";
    AppendHeader(&out, name, c.name, "counter");
    out.append(StrFormat("%s %llu\n", name.c_str(),
                         static_cast<unsigned long long>(c.value)));
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = PrometheusName(g.name);
    AppendHeader(&out, name, g.name, "gauge");
    out.append(StrFormat("%s %s\n", name.c_str(), PromNumber(g.value).c_str()));
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = PrometheusName(h.name);
    AppendHeader(&out, name, h.name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      const std::string le =
          i < h.bounds.size() ? PromNumber(h.bounds[i]) : std::string("+Inf");
      out.append(StrFormat("%s_bucket{le=\"%s\"} %llu\n", name.c_str(), le.c_str(),
                           static_cast<unsigned long long>(cumulative)));
    }
    out.append(StrFormat("%s_sum %s\n", name.c_str(), PromNumber(h.sum).c_str()));
    out.append(StrFormat("%s_count %llu\n", name.c_str(),
                         static_cast<unsigned long long>(h.count)));
  }
  return out;
}

}  // namespace cftcg::obs
