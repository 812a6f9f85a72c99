#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/json.hpp"
#include "support/strings.hpp"

namespace cftcg::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Min/max via CAS loops: each retries only while another thread holds a
  // less extreme value, so every recorded sample is reflected exactly once.
  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0 : v;
}

HistogramSnapshot Histogram::Snapshot(std::string name) const {
  return HistogramSnapshot{std::move(name), count(), sum(), min(), max(), bounds(),
                           bucket_counts()};
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target sample (1-based); walk the cumulative distribution
  // to the bucket containing it.
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const std::uint64_t in_bucket = bucket_counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    // Linear interpolation within [lo, hi]: lo is the previous bound (or
    // the observed min for the lowest populated bucket), hi the bucket's own
    // bound (or the observed max for the overflow bucket).
    const double lo = i == 0 ? min : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : max;
    const double frac =
        (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    const double est = lo + (hi - lo) * std::min(std::max(frac, 0.0), 1.0);
    return std::min(std::max(est, min), max);  // never outside observed range
  }
  return max;
}

std::uint64_t RegistrySnapshot::CounterValue(std::string_view name,
                                            std::uint64_t fallback) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

double RegistrySnapshot::GaugeValue(std::string_view name, double fallback) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return fallback;
}

const HistogramSnapshot* RegistrySnapshot::FindHistogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(c.name).c_str(),
                     static_cast<unsigned long long>(c.value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":%s", JsonEscape(g.name).c_str(), JsonNumber(g.value).c_str());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ',';
    first = false;
    out += StrFormat("\"%s\":{\"count\":%llu,\"sum\":%s,\"min\":%s,\"max\":%s,\"buckets\":[",
                     JsonEscape(h.name).c_str(), static_cast<unsigned long long>(h.count),
                     JsonNumber(h.sum).c_str(), JsonNumber(h.min).c_str(),
                     JsonNumber(h.max).c_str());
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out += ',';
      const std::string le = i < h.bounds.size() ? JsonNumber(h.bounds[i]) : "\"inf\"";
      out += StrFormat("{\"le\":%s,\"count\":%llu}", le.c_str(),
                       static_cast<unsigned long long>(h.bucket_counts[i]));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

RegistrySnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(GaugeSnapshot{name, gauge->value()});
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back(hist->Snapshot(name));
  }
  return snap;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed (safe at exit)
  return *registry;
}

std::vector<double> DurationBucketBounds() {
  return {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60, 300};
}

std::vector<double> ExecDurationBucketBounds() {
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2, 0.1, 1};
}

}  // namespace cftcg::obs
