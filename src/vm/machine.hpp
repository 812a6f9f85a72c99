// The bytecode executor.
//
// One Machine instance holds the mutable run state (registers, input/output
// slots, persistent state). Step() executes one model iteration — the
// equivalent of calling the generated Model_step() function in the paper's
// fuzz driver. Reset() is Model_init(): it restores every state slot to its
// initial value (run once per test case).
//
// Two engines run a Step, with identical effects. Native code
// (native_x64.hpp) runs whenever the build targets x86-64 and the host grants
// an executable mapping; it is translated at the first Step of each
// configuration (profile off / counting / strobing, margins on / off).
// Otherwise the threaded bytecode interpreter runs. StepBytecode() calls the
// interpreter directly: it is the reference the native code is tested
// against.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coverage/sink.hpp"
#include "vm/cmp_trace.hpp"
#include "vm/native_x64.hpp"
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
        dfile_[static_cast<std::size_t>(dlay_.in) + i] = v.AsDouble();
      } else {
        ifile_[static_cast<std::size_t>(ilay_.in) + i] = v.AsInt64();
      }
    }
  }

  /// Typed input assignment (used by the baselines and tests).
  void SetInputs(std::span<const ir::Value> values);

  /// Executes one model iteration. `sink` receives model-level coverage
  /// events (may be nullptr when running uninstrumented programs);
  /// `edge_map` (size program.num_edges) receives code-level edges (may be
  /// nullptr). Returns true if the iteration ran to kHalt; false if it was
  /// aborted because the step budget was exhausted (a hang). Runs native
  /// code when there is any (see the file comment), else the interpreter.
  bool Step(coverage::CoverageSink* sink, std::uint8_t* edge_map = nullptr);

  /// Step() on the bytecode interpreter, whatever the host: the reference
  /// engine, with exactly the effects of a native Step.
  bool StepBytecode(coverage::CoverageSink* sink, std::uint8_t* edge_map = nullptr);

  /// Bytes of native code translated so far (0 when every Step so far ran
  /// the interpreter), and the time the translations took.
  [[nodiscard]] std::size_t native_code_bytes() const;
  [[nodiscard]] double native_translate_us() const { return native_.translate_us; }

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
  /// dispatch loop counts Step entries and one edge per conditional or
  /// backward control transfer in the Machine, and FlushProfile() expands
  /// them into the profile's per-instruction dispatch counts; when the
  /// strobe is armed, every dispatch also advances the sample countdown. The
  /// caller sizes the buffers with ExecProfile::AttachTo first. Pass nullptr to detach; the
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
  [[nodiscard]] double state_d(int slot) const { return dfile_[At(dlay_.state, slot)]; }
  [[nodiscard]] std::int64_t state_i(int slot) const { return ifile_[At(ilay_.state, slot)]; }
  /// Peek at registers (tests / debugging).
  [[nodiscard]] double dreg(int r) const { return dfile_[At(0, r)]; }
  [[nodiscard]] std::int64_t ireg(int r) const { return ifile_[At(0, r)]; }
  /// The whole double / int register file: registers, then the input,
  /// output and state slots (FileLayout). Tests compare engines with it.
  [[nodiscard]] const std::vector<double>& dfile() const { return dfile_; }
  [[nodiscard]] const std::vector<std::int64_t>& ifile() const { return ifile_; }

 private:
  /// Dispatch-loop profiling modes, one specialization each: kOff carries no
  /// profiling code at all, kCount is one counter increment per Step, per
  /// backward transfer taken and per forward jz/jnz/br.* not taken (the
  /// always-on plane, gated ≤5% overhead by the bench suite), kStrobe adds
  /// the per-dispatch sampling countdown kept in a register.
  enum class ProfileMode { kOff, kCount, kStrobe };
  static std::size_t At(std::int32_t region, int k) {
    return static_cast<std::size_t>(region) + static_cast<std::size_t>(k);
  }

  /// The native code for the current configuration, translated on first
  /// use; nullptr when the interpreter must run.
  const NativeCode* NativeForConfig();
  bool StepNative(const NativeCode& code, coverage::CoverageSink* sink, std::uint8_t* edge_map);
  // The native code's out-of-line calls (NativeHooks).
  static void NativeSlow(NativeFrame* frame, std::int32_t pc);
  static void NativeMargins(NativeFrame* frame, std::int32_t pc);

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
      return o.is_float ? dfile_[reg] : static_cast<double>(ifile_[reg]);
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

  /// Native translations, one per configuration. A copy starts empty and
  /// translates again at its first Step; a move takes the mappings. So no
  /// two Machines ever share or double-free a mapping.
  struct NativeCache {
    static constexpr std::size_t kConfigs = 6;  // profile off/count/strobe x margins
    std::array<NativeCode, kConfigs> code;
    bool refused = false;  // translating or mapping failed: the interpreter runs
    double translate_us = 0;

    NativeCache() = default;
    NativeCache(const NativeCache& /*other*/) {}
    NativeCache& operator=(const NativeCache& other) {
      if (this != &other) *this = NativeCache();
      return *this;
    }
    NativeCache(NativeCache&&) noexcept = default;
    NativeCache& operator=(NativeCache&&) noexcept = default;
    ~NativeCache() = default;
  };

  const Program* program_;
  CmpTrace* cmp_trace_ = nullptr;
  ExecProfile* profile_ = nullptr;
  // Profile counts pending since the last FlushProfile: Step entries, and
  // per pc the hangs aborted there and its counted edge — the times a
  // backward transfer was taken, or a forward jz/jnz/br.* fell through (a
  // forward transfer taken, and a forward jmp, are derived by the flush).
  // landings_ is FlushProfile's work buffer (runs arriving at each target),
  // kept zeroed between flushes.
  mutable std::uint64_t pending_steps_ = 0;
  mutable std::vector<std::uint64_t> edges_;
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
  // The register files: registers, then input, output and state slots.
  FileLayout dlay_;
  FileLayout ilay_;
  std::vector<double> dfile_;
  std::vector<std::int64_t> ifile_;
  // What native code reads and writes for coverage when Step gets no sink
  // or no edge map (the interpreter skips those instructions instead).
  std::vector<std::uint64_t> dropped_cov_;
  std::vector<std::uint8_t> dropped_edges_;
  std::vector<std::uint64_t> dropped_evals_;
  NativeCache native_;
};

}  // namespace cftcg::vm
