// The bytecode executor.
//
// One Machine instance holds the mutable run state (registers, input/output
// slots, persistent state). Step() executes one model iteration — the
// equivalent of calling the generated Model_step() function in the paper's
// fuzz driver. Reset() is Model_init(): it restores every state slot to its
// initial value (run once per test case).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "coverage/sink.hpp"
#include "vm/cmp_trace.hpp"
#include "vm/profile.hpp"
#include "vm/program.hpp"

namespace cftcg::vm {

class Machine {
 public:
  explicit Machine(const Program& program);

  /// Model_init(): restores initial state.
  void Reset();

  /// Fills the input slots from one raw tuple (TupleSize() bytes), exactly
  /// like the generated driver's per-field memcpy (Figure 3 of the paper).
  void SetInputsFromBytes(const std::uint8_t* tuple);

  /// Typed input assignment (used by the baselines and tests).
  void SetInputs(std::span<const ir::Value> values);

  /// Executes one model iteration. `sink` receives model-level coverage
  /// events (may be nullptr when running uninstrumented programs);
  /// `edge_map` (size program.num_edges) receives code-level edges (may be
  /// nullptr). Returns true if the iteration ran to kHalt; false if it was
  /// aborted because the step budget was exhausted (a hang).
  bool Step(coverage::CoverageSink* sink, std::uint8_t* edge_map = nullptr);

  /// Hang containment: caps the number of backward control transfers (loop
  /// iterations) one Step() may take before it is aborted. Straight-line
  /// bytecode cannot exceed the program length, so back edges are the only
  /// way an iteration can run unboundedly. 0 means unlimited.
  void set_step_budget(std::uint64_t max_back_jumps) { step_budget_ = max_back_jumps; }
  [[nodiscard]] std::uint64_t step_budget() const { return step_budget_; }

  [[nodiscard]] ir::Value GetOutput(int index) const;
  [[nodiscard]] int num_outputs() const { return static_cast<int>(program_->output_types.size()); }

  [[nodiscard]] const Program& program() const { return *program_; }

  /// Attaches a comparison-operand trace (libFuzzer-style TORC). Failed
  /// equality comparisons record both operands. Pass nullptr to detach.
  void set_cmp_trace(CmpTrace* trace) { cmp_trace_ = trace; }

  /// Attaches an execution profile: every dispatch bumps one counter (and,
  /// when the strobe is armed, occasionally one sample slot). The caller
  /// sizes the buffers with ExecProfile::AttachTo first. Pass nullptr to
  /// detach; the detached dispatch loop is a separate specialization and
  /// carries no profiling code at all.
  void set_profile(ExecProfile* profile) { profile_ = profile; }

  /// Attaches a branch-distance recorder (Reset to the spec by the caller)
  /// for the program's margin sites. Pass nullptr to detach; the detached
  /// dispatch loops never read the side table.
  void set_margins(coverage::MarginRecorder* margins) { margins_ = margins; }

  /// Peek at persistent state (tests / debugging).
  [[nodiscard]] double state_d(int slot) const { return state_d_[static_cast<std::size_t>(slot)]; }
  [[nodiscard]] std::int64_t state_i(int slot) const {
    return state_i_[static_cast<std::size_t>(slot)];
  }
  /// Peek at registers (tests / debugging).
  [[nodiscard]] double dreg(int r) const { return dregs_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] std::int64_t ireg(int r) const { return iregs_[static_cast<std::size_t>(r)]; }

 private:
  /// Dispatch-loop profiling modes, one specialization each: kOff carries no
  /// profiling code at all, kCount is one counter increment per dispatch
  /// (the always-on plane, gated ≤5% overhead by the bench suite), kStrobe
  /// adds the sampling countdown kept in a register.
  enum class ProfileMode { kOff, kCount, kStrobe };
  /// Specialized per profiling mode and on whether margins are recorded.
  template <bool kRecordMargins>
  bool StepWith(coverage::CoverageSink* sink, std::uint8_t* edge_map);
  template <ProfileMode kMode, bool kRecordMargins>
  bool StepImpl(coverage::CoverageSink* sink, std::uint8_t* edge_map);

  /// Records one margin site from the current register values.
  void RecordMargin(const MarginSite& m) const {
    const auto value = [this](const MarginOperand& o) {
      const auto reg = static_cast<std::size_t>(o.reg);
      return o.is_float ? dregs_[reg] : static_cast<double>(iregs_[reg]);
    };
    const double diff = value(m.lhs) - value(m.rhs);
    margins_->Record(m.decision, m.ge_outcome, m.lt_outcome,
                     m.kind == MarginSite::Kind::kDiff ? diff : -std::fabs(diff));
  }

  /// TORC recording shared by eq/ne and their fused br.eq/br.ne forms: an
  /// equality comparison whose operands differ records both of them.
  void TraceEqD(double a, double b) {
    if (cmp_trace_ != nullptr && a != b) cmp_trace_->RecordDouble(a, b);
  }
  void TraceEqI(std::int64_t a, std::int64_t b) {
    if (cmp_trace_ != nullptr && a != b) cmp_trace_->RecordInt(a, b);
  }

  const Program* program_;
  CmpTrace* cmp_trace_ = nullptr;
  ExecProfile* profile_ = nullptr;
  coverage::MarginRecorder* margins_ = nullptr;
  // Sites of pc: program_->margins[margin_at_[pc] .. margin_at_[pc + 1]).
  std::vector<std::int32_t> margin_at_;
  std::uint64_t step_budget_ = 0;
  std::vector<double> dregs_;
  std::vector<std::int64_t> iregs_;
  std::vector<double> in_d_;
  std::vector<std::int64_t> in_i_;
  std::vector<double> out_d_;
  std::vector<std::int64_t> out_i_;
  std::vector<double> state_d_;
  std::vector<std::int64_t> state_i_;
};

}  // namespace cftcg::vm
