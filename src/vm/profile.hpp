// Raw VM execution-profile buffers (the campaign self-profiler's VM plane).
//
// An ExecProfile is a plain counter buffer a Machine writes into: one
// dispatch count per instruction. The Machine counts the dispatches
// cheaply — one add per Step, per backward transfer taken and per forward
// conditional transfer not taken, not per dispatch — and
// Machine::FlushProfile() expands its pending counts into insn_counts, so
// insn_counts is exact after a flush (the Fuzzer flushes whenever its
// planes are read); steps is always current. The counts are a
// deterministic function of the executed instruction stream, so profiles
// merge and resume exactly like the other campaign counters.
//
// The buffers deliberately live VM-side with no aggregation logic; the
// obs::profiler layer folds them against Program::insn_block /
// Program::block_names into per-block and per-opcode attributions.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/program.hpp"

namespace cftcg::vm {

struct ExecProfile {
  /// Dispatch count per instruction index (size = program.code.size());
  /// exact after Machine::FlushProfile().
  std::vector<std::uint64_t> insn_counts;
  /// Completed-or-aborted Step() calls (model iterations started).
  std::uint64_t steps = 0;

  /// Sizes the buffer for `program` (idempotent; preserves counts when the
  /// sizes already match).
  void AttachTo(const Program& program) { insn_counts.resize(program.code.size(), 0); }

  /// Total instruction dispatches across the program (Σ insn_counts).
  [[nodiscard]] std::uint64_t TotalDispatches() const {
    std::uint64_t total = 0;
    for (std::uint64_t c : insn_counts) total += c;
    return total;
  }

  /// Element-wise merge (parallel workers, worker-id order). Buffers must
  /// describe the same program; a shorter buffer is grown to match.
  void MergeFrom(const ExecProfile& other) {
    if (insn_counts.size() < other.insn_counts.size()) {
      insn_counts.resize(other.insn_counts.size(), 0);
    }
    for (std::size_t i = 0; i < other.insn_counts.size(); ++i) {
      insn_counts[i] += other.insn_counts[i];
    }
    steps += other.steps;
  }
};

}  // namespace cftcg::vm
