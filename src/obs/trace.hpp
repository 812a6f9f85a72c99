// Campaign event trace — JSONL records of fuzzer milestones.
//
// One line per event: {"t":<seconds since writer creation>,"ev":"<kind>",
// ...payload}. The `t` field comes from obs::Clock, the same monotonic
// source as every other timestamp in the system, so trace records line up
// with CampaignResult timings. Event payloads are flat (scalar fields only)
// so downstream consumers (`cftcg trace-summary`, the bench harness, any
// jq/pandas pipeline) stay trivial.
//
// Event kinds emitted by the pipeline:
//   start    campaign configuration (mode, seed, budget, branch space)
//   new      a test case triggered NEW model coverage
//   frontier the covered branch-slot frontier advanced
//   stat     periodic heartbeat (exec/s, iters/s, corpus, energy, per-
//            strategy counts)
//   stop     final totals and coverage percentages
//   phase    a ScopedTimer span closed (name + seconds)
//
// The campaign driver forwards each lane's per-execution events (`new`,
// `frontier`, `corpus`, `hang`) with a `lane` field.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/clock.hpp"
#include "support/status.hpp"

namespace cftcg::obs {

/// One event under construction: a kind plus flat key/value payload.
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view kind) : kind_(kind) {}

  TraceEvent& U64(std::string_view key, std::uint64_t value);
  TraceEvent& I64(std::string_view key, std::int64_t value);
  TraceEvent& F64(std::string_view key, double value);
  TraceEvent& Str(std::string_view key, std::string_view value);

 private:
  friend class TraceWriter;
  std::string kind_;
  std::string payload_;  // pre-rendered ,"key":value fragments
};

/// Append-only JSONL sink. Writes either to a file or to an in-memory
/// string (tests and the bench harness parse the buffer back). Emit and
/// Flush are thread-safe: each event is rendered outside the lock and
/// written as one fwrite/append, so concurrent writers (the parallel
/// fuzzing engine's workers) never interleave partial JSONL lines.
class TraceWriter {
 public:
  /// File sink; fails if the path cannot be opened for writing.
  static Result<std::unique_ptr<TraceWriter>> Open(const std::string& path);

  /// In-memory sink appending lines to `buffer` (not owned).
  explicit TraceWriter(std::string* buffer) : buffer_(buffer) {}

  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Stamps the event with seconds-since-construction and writes one line.
  void Emit(const TraceEvent& event);

  /// Re-emits the JSONL lines another writer rendered (a campaign lane's
  /// in-memory trace): each is re-stamped with this writer's clock and gets
  /// a `lane` field appended. Lines that are not `{"t":...}` records are
  /// skipped.
  void Forward(std::string_view lines, std::uint64_t lane);

  void Flush();

  [[nodiscard]] std::uint64_t events_written() const;
  [[nodiscard]] const Stopwatch& clock() const { return clock_; }

 private:
  explicit TraceWriter(std::FILE* file) : file_(file) {}

  Stopwatch clock_;
  mutable std::mutex mutex_;     // guards file_/buffer_ writes and events_
  std::FILE* file_ = nullptr;    // owned when non-null
  std::string partial_path_;     // file sink streams here ("<path>.partial")
  std::string final_path_;       // renamed onto this on close
  std::string* buffer_ = nullptr;
  std::uint64_t events_ = 0;
};

}  // namespace cftcg::obs
