// Raw VM execution-profile buffers (the campaign self-profiler's VM plane).
//
// An ExecProfile is a plain counter buffer a Machine writes into: one
// dispatch count per instruction, plus an opt-in instruction-count strobe
// that takes one "sample" every strobe_period dispatches without ever
// reading a clock. The Machine counts the dispatches cheaply — one add per
// Step, per backward transfer taken and per forward conditional transfer
// not taken, not per dispatch — and
// Machine::FlushProfile() expands its pending counts into insn_counts, so
// insn_counts is exact after a flush (the Fuzzer flushes whenever its
// planes are read); steps and the samples are always current. Sampled dispatch positions are
// a deterministic function of the executed instruction stream, so profiles
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
  /// Strobe samples per instruction index; only advanced when
  /// strobe_period != 0 (the --profile timed mode).
  std::vector<std::uint64_t> insn_samples;
  /// Completed-or-aborted Step() calls (model iterations started).
  std::uint64_t steps = 0;
  /// Take one sample every N dispatches; 0 disables sampling (count-only).
  /// A prime default avoids resonating with short model loops.
  std::uint64_t strobe_period = 0;
  /// Dispatches until the next sample. Cross-Step state: it is part of the
  /// campaign checkpoint so a resumed profile is bit-identical.
  std::uint64_t strobe_countdown = 0;

  /// Sizes the buffers for `program` (idempotent; preserves counts when the
  /// sizes already match) and arms the strobe countdown.
  void AttachTo(const Program& program) {
    insn_counts.resize(program.code.size(), 0);
    insn_samples.resize(program.code.size(), 0);
    if (strobe_period != 0 && strobe_countdown == 0) strobe_countdown = strobe_period;
  }

  /// Total instruction dispatches across the program (Σ insn_counts).
  [[nodiscard]] std::uint64_t TotalDispatches() const {
    std::uint64_t total = 0;
    for (std::uint64_t c : insn_counts) total += c;
    return total;
  }

  /// Element-wise merge (parallel workers, worker-id order). Buffers must
  /// describe the same program; shorter buffers are grown to match.
  void MergeFrom(const ExecProfile& other) {
    if (insn_counts.size() < other.insn_counts.size()) {
      insn_counts.resize(other.insn_counts.size(), 0);
    }
    for (std::size_t i = 0; i < other.insn_counts.size(); ++i) {
      insn_counts[i] += other.insn_counts[i];
    }
    if (insn_samples.size() < other.insn_samples.size()) {
      insn_samples.resize(other.insn_samples.size(), 0);
    }
    for (std::size_t i = 0; i < other.insn_samples.size(); ++i) {
      insn_samples[i] += other.insn_samples[i];
    }
    steps += other.steps;
  }
};

}  // namespace cftcg::vm
