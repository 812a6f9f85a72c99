// Corpus of interesting inputs.
//
// Entries carry the Iteration Difference Coverage metric (Algorithm 1's
// return value); selection is energy-weighted toward higher-IDC entries so
// that inputs whose iterations keep visiting *different* branch sets — the
// paper's proxy for state-space exploration — get mutated more often.
//
// Every entry additionally carries its lineage: a corpus-unique id, the id
// of the parent it was mutated from (kNoParent for seed inputs), its
// generation depth, and the Table 1 strategy chain of the mutation that
// produced it. The fuzzing loop maintains these on admission; the
// provenance layer joins them against per-objective first hits so a
// campaign's genealogy is reconstructible from the trace alone.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzz/mutator.hpp"
#include "support/rng.hpp"

namespace cftcg::fuzz {

struct CorpusEntry {
  static constexpr std::int64_t kNoParent = -1;

  std::vector<std::uint8_t> data;
  std::size_t metric = 0;      // IDC metric (or edge count in Fuzz Only mode)
  std::size_t new_slots = 0;   // slots newly covered when this entry was added
  /// Coverage signature of the producing execution (0 unless the campaign
  /// ran with collect_signatures) — the parallel engine's dedup key for
  /// cross-worker corpus sync.
  std::uint64_t signature = 0;
  // -- Lineage (assigned by the fuzzing loop / Corpus::Add) ---------------
  std::int64_t id = kNoParent;         // corpus-unique, insertion order
  std::int64_t parent_id = kNoParent;  // entry this was mutated from
  std::uint32_t depth = 0;             // generations from a seed entry
  std::vector<MutationStrategy> chain; // strategies of the producing mutation
};

class Corpus {
 public:
  /// Stamps the entry with the next id (insertion order) and stores it.
  void Add(CorpusEntry entry);

  /// Replaces the whole corpus with checkpointed entries (ids preserved)
  /// and rebuilds the energy prefix sums. Entries must already be in
  /// insertion order with ids 0..n-1, as SaveState captured them.
  void Restore(std::vector<CorpusEntry> entries);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const CorpusEntry& entry(std::size_t i) const { return entries_[i]; }
  [[nodiscard]] const std::vector<CorpusEntry>& entries() const { return entries_; }

  /// Energy-weighted pick: probability proportional to (metric + 1).
  /// O(log n) binary search over the cumulative-energy vector (the corpus
  /// is append-only, so the prefix sums never need rebuilding).
  [[nodiscard]] const CorpusEntry& Pick(Rng& rng) const;
  /// Uniform pick (crossover partner).
  [[nodiscard]] const CorpusEntry& PickUniform(Rng& rng) const;

  /// Sum of (metric + 1) over all entries — the denominator of the energy
  /// distribution (telemetry heartbeats report it alongside max_metric).
  [[nodiscard]] std::uint64_t total_energy() const { return total_energy_; }
  /// Largest per-entry metric currently in the corpus. O(1): the max is
  /// cached on Add (entries are never removed or re-scored).
  [[nodiscard]] std::size_t MaxMetric() const { return max_metric_; }
  /// Id the next Add() will assign (== size(); entries are append-only).
  [[nodiscard]] std::int64_t next_id() const {
    return static_cast<std::int64_t>(entries_.size());
  }

 private:
  std::vector<CorpusEntry> entries_;
  std::vector<std::uint64_t> cumulative_energy_;  // cumulative_energy_[i] = sum of energies 0..i
  std::uint64_t total_energy_ = 0;
  std::size_t max_metric_ = 0;
};

}  // namespace cftcg::fuzz
