// The bytecode executor.
//
// One Machine instance holds the mutable run state (registers, input/output
// slots, persistent state). Step() executes one model iteration — the
// equivalent of calling the generated Model_step() function in the paper's
// fuzz driver. Reset() is Model_init(): it restores every state slot to its
// initial value (run once per test case).
#pragma once

#include <cmath>
#include <cstddef>
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

  /// Fills the input slots from one raw tuple (TupleSize() bytes), each
  /// field decoded by ir::Value::FromBytes like the generated driver does
  /// (Figure 3 of the paper).
  void SetInputsFromBytes(const std::uint8_t* tuple) {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const InputField& f = inputs_[i];
      const ir::Value v = ir::Value::FromBytes(f.type, tuple + f.offset);
      if (ir::DTypeIsFloat(f.type)) {
        in_d_[i] = v.AsDouble();
      } else {
        in_i_[i] = v.AsInt64();
      }
    }
  }

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

  /// Attaches an execution profile (flushing the one attached before). The
  /// dispatch loop counts Step entries and taken control transfers in the
  /// Machine, and FlushProfile() expands them into the profile's
  /// per-instruction dispatch counts; when the strobe is armed, every
  /// dispatch also advances the sample countdown. The caller sizes the
  /// buffers with ExecProfile::AttachTo first. Pass nullptr to detach; the
  /// detached dispatch loop is a separate specialization and carries no
  /// profiling code at all.
  void set_profile(ExecProfile* profile) {
    FlushProfile();
    profile_ = profile;
  }

  /// Adds the dispatches counted since the last flush to the attached
  /// profile's insn_counts (off the hot path: one walk over the run ends and
  /// one sweep over the code, no allocation). The profile's dispatch counts are exact only after a
  /// flush; `steps` and the strobe samples are always current. Const: it
  /// moves counts from the Machine's pending buffers into the attached
  /// profile and changes nothing a Step would observe.
  void FlushProfile() const;

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
  /// profiling code at all, kCount is one counter increment per Step and per
  /// taken transfer (the always-on plane, gated ≤5% overhead by the bench
  /// suite), kStrobe
  /// adds the per-dispatch sampling countdown kept in a register.
  enum class ProfileMode { kOff, kCount, kStrobe };
  /// Specialized per profiling mode and on whether margins are recorded.
  template <bool kRecordMargins>
  bool StepWith(coverage::CoverageSink* sink, std::uint8_t* edge_map);
  template <ProfileMode kMode, bool kRecordMargins>
  bool StepImpl(coverage::CoverageSink* sink, std::uint8_t* edge_map);

  /// Records the margin sites of instruction `pc`, if it has any. Forced
  /// inline: the dispatch loop is too large for the inliner's budget, and
  /// this check runs on every dispatch of the margin-recording loops.
  [[gnu::always_inline]] void RecordMarginsAt(std::ptrdiff_t pc) const {
    const auto at = static_cast<std::size_t>(pc);
    if (margin_at_[at] != margin_at_[at + 1]) RecordMarginSites(at);
  }
  /// Records every margin site of instruction `at`.
  void RecordMarginSites(std::size_t at) const;

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

  /// One tuple field: where it starts and how it decodes.
  struct InputField {
    std::size_t offset = 0;
    ir::DType type = ir::DType::kDouble;
  };

  const Program* program_;
  CmpTrace* cmp_trace_ = nullptr;
  ExecProfile* profile_ = nullptr;
  // Profile counts pending since the last FlushProfile: Step entries, and
  // per pc the transfers taken and the hangs aborted there. landings_ is
  // FlushProfile's work buffer (taken counts added onto their targets), kept
  // zeroed between flushes.
  mutable std::uint64_t pending_steps_ = 0;
  mutable std::vector<std::uint64_t> taken_;
  mutable std::vector<std::uint64_t> aborted_;
  mutable std::vector<std::uint64_t> landings_;
  // The pcs that end a run of dispatches (halt and every control transfer),
  // ascending.
  std::vector<std::size_t> run_ends_;
  std::vector<InputField> inputs_;
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
