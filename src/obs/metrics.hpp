// Metrics registry — lock-cheap counters, gauges and fixed-bucket
// histograms with a pull-style snapshot API.
//
// Hot-path writes are a single relaxed atomic op (Counter/Gauge) or a few
// relaxed atomic ops (Histogram — safe under concurrent recorders);
// registration and snapshotting take a mutex but happen off the hot path.
// Metric objects have stable addresses for the life of the registry, so
// callers hoist the lookup out of their loops:
//
//   obs::Counter& execs = registry.GetCounter("fuzz.executions");
//   while (...) { execs.Increment(); }
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cftcg::obs {

class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

struct HistogramSnapshot;

/// Fixed-bucket histogram. Bucket i counts samples with
/// value <= bounds[i] (and > bounds[i-1]); one overflow bucket catches the
/// rest. Record is thread-safe (the parallel engine's workers share the
/// global registry): bucket/count/sum updates are relaxed atomic adds and
/// min/max maintenance is a CAS loop, so concurrent recorders never lose a
/// sample. Cross-field consistency is only as strong as a snapshot taken
/// between bursts — sum and count drift apart transiently mid-Record, which
/// is the standard contract for lock-free metrics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// min()/max() report 0 until the first sample lands (matching count()==0).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Copied out (relaxed loads): size() == bounds().size() + 1, last = overflow.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  /// A point-in-time copy under `name` (for Quantile()).
  [[nodiscard]] HistogramSnapshot Snapshot(std::string name) const;

 private:
  std::vector<double> bounds_;                          // ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_;  // +inf until the first Record
  std::atomic<double> max_;  // -inf until the first Record
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  [[nodiscard]] double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0; }
  /// Estimated q-quantile (q in [0,1]) by linear interpolation within the
  /// bucket holding the target rank — the Prometheus histogram_quantile
  /// estimator, clamped to the observed [min, max]. 0 when empty.
  [[nodiscard]] double Quantile(double q) const;
};

/// A point-in-time copy of every metric; later registry updates do not
/// affect an already-taken snapshot. Entries are sorted by name.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] std::uint64_t CounterValue(std::string_view name, std::uint64_t fallback) const;
  [[nodiscard]] double GaugeValue(std::string_view name, double fallback) const;
  [[nodiscard]] const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,
  /// buckets:[{le,count},...]}}} — parses back with obs::ParseJson.
  [[nodiscard]] std::string ToJson() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by name. Re-requesting a name returns the same object;
  /// a histogram's bounds are fixed by its first registration.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds);

  [[nodiscard]] RegistrySnapshot Snapshot() const;

  /// Process-wide registry used by the pipeline phase timers (and by the
  /// CLI's --metrics dump). Library embedders that want isolation pass
  /// their own Registry instead.
  static Registry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Default bucket bounds for phase/span durations in seconds.
std::vector<double> DurationBucketBounds();

/// Finer sub-millisecond bounds for per-execution durations in seconds —
/// a fuzzing executor runs in microseconds, far below the phase buckets.
std::vector<double> ExecDurationBucketBounds();

}  // namespace cftcg::obs
