#include "vm/machine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

#include "support/numerics.hpp"

namespace cftcg::vm {

using namespace cftcg::num;

namespace {

// Two's-complement integer arithmetic without signed overflow: what the
// hardware (and the native templates) compute for any int64 operands.
std::int64_t WrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t WrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t WrapMul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}

// min.d and max.d as explicit comparisons, as the printed C's MinD/MaxD
// are: a tie returns a (the native minsd/maxsd with b as the destination),
// and an unordered pair the operand that is not NaN (b when both are). No
// libm call, whose tie rule would depend on how the compiler orders the
// operands of a commutative call.
double MinD(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  return b < a ? b : a;
}
double MaxD(double a, double b) {
  if (std::isnan(a)) return b;
  if (std::isnan(b)) return a;
  return b > a ? b : a;
}

/// The semantics of one data instruction (ldc.d through ne.i): registers in,
/// registers out. The interpreter's handlers (with `op` a constant, so the
/// switch folds away) and the native code's slow path both run this, so
/// each opcode is defined once. eq/ne compute only their flag here; TORC
/// recording is the caller's.
[[gnu::always_inline]] inline void Compute(Op op, const Insn& in, double* d, std::int64_t* r) {
  double& dd = d[in.dst];
  std::int64_t& di = r[in.dst];
  const ir::DType t = in.type;
  switch (op) {
    case Op::kLoadConstD: dd = in.dimm; return;
    // Wrap to the declared width: an out-of-range literal (e.g. an int32
    // Constant of 1e30) must behave like the same assignment in the
    // generated C.
    case Op::kLoadConstI: di = ir::WrapToDType(TruncToI64(in.dimm), t); return;
    case Op::kMovD: dd = d[in.a]; return;
    case Op::kMovI: di = r[in.a]; return;
    case Op::kCvtDToI: di = ir::WrapToDType(TruncToI64(d[in.a]), t); return;
    case Op::kCvtIToD: dd = static_cast<double>(r[in.a]); return;
    case Op::kWrapI: di = ir::WrapToDType(r[in.a], t); return;
    case Op::kBoolD: di = d[in.a] != 0.0; return;
    case Op::kBoolI: di = r[in.a] != 0; return;
    case Op::kAddD: dd = d[in.a] + d[in.b]; return;
    case Op::kSubD: dd = d[in.a] - d[in.b]; return;
    case Op::kMulD: dd = d[in.a] * d[in.b]; return;
    case Op::kDivD: dd = SafeDiv(d[in.a], d[in.b]); return;
    case Op::kMinD: dd = MinD(d[in.a], d[in.b]); return;
    case Op::kMaxD: dd = MaxD(d[in.a], d[in.b]); return;
    case Op::kModD: dd = SafeMod(d[in.a], d[in.b]); return;
    case Op::kRemD: dd = SafeRem(d[in.a], d[in.b]); return;
    case Op::kPowD: dd = Finite(std::pow(d[in.a], d[in.b])); return;
    case Op::kAtan2D: dd = std::atan2(d[in.a], d[in.b]); return;
    case Op::kNegD: dd = -d[in.a]; return;
    case Op::kAbsD: dd = std::fabs(d[in.a]); return;
    case Op::kSignD: dd = (d[in.a] > 0.0) ? 1.0 : ((d[in.a] < 0.0) ? -1.0 : 0.0); return;
    case Op::kSqrtD: dd = SafeSqrt(d[in.a]); return;
    case Op::kExpD: dd = Finite(std::exp(d[in.a])); return;
    case Op::kLogD: dd = SafeLog(d[in.a]); return;
    case Op::kFloorD: dd = std::floor(d[in.a]); return;
    case Op::kCeilD: dd = std::ceil(d[in.a]); return;
    case Op::kRoundD: dd = std::nearbyint(d[in.a]); return;
    case Op::kSinD: dd = std::sin(d[in.a]); return;
    case Op::kCosD: dd = std::cos(d[in.a]); return;
    case Op::kTanD: dd = Finite(std::tan(d[in.a])); return;
    case Op::kAddI: di = ir::WrapToDType(WrapAdd(r[in.a], r[in.b]), t); return;
    case Op::kSubI: di = ir::WrapToDType(WrapSub(r[in.a], r[in.b]), t); return;
    case Op::kMulI: di = ir::WrapToDType(WrapMul(r[in.a], r[in.b]), t); return;
    case Op::kDivI: di = ir::WrapToDType(SafeDivI(r[in.a], r[in.b]), t); return;
    case Op::kMinI: di = r[in.a] < r[in.b] ? r[in.a] : r[in.b]; return;
    case Op::kMaxI: di = r[in.a] > r[in.b] ? r[in.a] : r[in.b]; return;
    case Op::kModI: di = ir::WrapToDType(SafeModI(r[in.a], r[in.b]), t); return;
    case Op::kRemI: di = ir::WrapToDType(SafeRemI(r[in.a], r[in.b]), t); return;
    case Op::kNegI: di = ir::WrapToDType(WrapSub(0, r[in.a]), t); return;
    case Op::kAbsI: di = ir::WrapToDType(r[in.a] < 0 ? WrapSub(0, r[in.a]) : r[in.a], t); return;
    case Op::kSignI: di = (r[in.a] > 0) ? 1 : ((r[in.a] < 0) ? -1 : 0); return;
    case Op::kAndBitsI: di = ir::WrapToDType(r[in.a] & r[in.b], t); return;
    case Op::kOrBitsI: di = ir::WrapToDType(r[in.a] | r[in.b], t); return;
    case Op::kXorBitsI: di = ir::WrapToDType(r[in.a] ^ r[in.b], t); return;
    case Op::kShlI:
      di = ir::WrapToDType(
          static_cast<std::int64_t>(static_cast<std::uint64_t>(r[in.a]) << (r[in.b] & 63)), t);
      return;
    case Op::kShrI: di = ir::WrapToDType(r[in.a] >> (r[in.b] & 63), t); return;
    case Op::kNotL: di = r[in.a] == 0; return;
    case Op::kLtD: di = d[in.a] < d[in.b]; return;
    case Op::kLeD: di = d[in.a] <= d[in.b]; return;
    case Op::kGtD: di = d[in.a] > d[in.b]; return;
    case Op::kGeD: di = d[in.a] >= d[in.b]; return;
    case Op::kEqD: di = d[in.a] == d[in.b]; return;
    case Op::kNeD: di = d[in.a] != d[in.b]; return;
    case Op::kLtI: di = r[in.a] < r[in.b]; return;
    case Op::kLeI: di = r[in.a] <= r[in.b]; return;
    case Op::kGtI: di = r[in.a] > r[in.b]; return;
    case Op::kGeI: di = r[in.a] >= r[in.b]; return;
    case Op::kEqI: di = r[in.a] == r[in.b]; return;
    case Op::kNeI: di = r[in.a] != r[in.b]; return;
    default: return;  // control flow, I/O and coverage are not data instructions
  }
}

/// kMcdcEval, shared like Compute.
[[gnu::always_inline]] inline void RecordMcdc(coverage::CoverageSink* sink, const Insn& in,
                                              const std::int64_t* r) {
  if (sink != nullptr) {
    sink->RecordEval(in.imm, static_cast<std::uint32_t>(r[in.a]),
                     static_cast<std::uint32_t>(r[in.b]), static_cast<int>(r[in.aux]));
  }
}

}  // namespace


Machine::Machine(const Program& program) : program_(&program) {
  dlay_ = FileLayout::Of(program.num_dregs, program.input_types.size(),
                         program.output_types.size(), program.state_d.size());
  ilay_ = FileLayout::Of(program.num_iregs, program.input_types.size(),
                         program.output_types.size(), program.state_i.size());
  dfile_.assign(static_cast<std::size_t>(dlay_.size), 0.0);
  ifile_.assign(static_cast<std::size_t>(ilay_.size), 0);
  // The constant pool: no instruction writes these registers, so one
  // preload here serves every Step().
  for (const auto& c : program.const_d) dfile_[static_cast<std::size_t>(c.reg)] = c.value;
  for (const auto& c : program.const_i) ifile_[static_cast<std::size_t>(c.reg)] = c.value;
  // margin_at_[pc] = number of margin sites before pc (they are pc-sorted).
  margin_at_.assign(program.code.size() + 1, 0);
  for (const MarginSite& m : program.margins) {
    assert(static_cast<std::size_t>(m.pc) < program.code.size() && "margin site past the code");
    ++margin_at_[static_cast<std::size_t>(m.pc) + 1];
  }
  std::partial_sum(margin_at_.begin(), margin_at_.end(), margin_at_.begin());
  edges_.assign(program.code.size(), 0);
  aborted_.assign(program.code.size(), 0);
  landings_.assign(program.code.size(), 0);
  std::int32_t max_slot = -1;
  std::int32_t max_decision = -1;
  for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
    const Insn& in = program.code[pc];
    if (in.op == Op::kHalt || EffectOf(in.op).jumps) run_ends_.push_back(pc);
    if (in.op == Op::kCov) max_slot = std::max(max_slot, in.imm);
    if (in.op == Op::kMcdcEval) max_decision = std::max(max_decision, in.imm);
    if (in.op == Op::kCovIf || in.op == Op::kCovCond) {
      max_slot = std::max({max_slot, in.imm, in.aux});
    }
  }
  dropped_cov_.assign(static_cast<std::size_t>(max_slot + 1) / 64 + 1, 0);
  const auto decisions = static_cast<std::size_t>(max_decision + 1);
  dropped_evals_.assign(decisions * coverage::CoverageSink::kEvalWays, 0);
  dropped_edges_.assign(static_cast<std::size_t>(std::max(program.num_edges, 0)), 0);
  std::size_t offset = 0;
  for (const ir::DType t : program.input_types) {
    inputs_.push_back(InputField{offset, t});
    offset += ir::DTypeSize(t);
  }
  Reset();
}

void Machine::FlushProfile() const {
  if (profile_ == nullptr) return;
  // Every run of dispatches goes straight from its start through the next
  // run end (halt, jmp, jz/jnz, br.*); a hang aborts on a back-edge
  // transfer, which ends its run too. Runs start at pc 0 (one per Step), at
  // the targets of taken transfers, and after a jz/jnz/br.* that fell
  // through. One upward sweep recovers every instruction's dispatch count,
  // and clears the pending counts behind it. The sweep meets a forward
  // transfer before its target, so it derives what the target receives: a
  // forward jmp sends every run covering it, a forward jz/jnz/br.* all but
  // its counted fall-throughs. A backward transfer's target is behind the
  // sweep, so its taken count is added onto the target first.
  const std::vector<Insn>& code = program_->code;
  std::uint64_t* counts = profile_->insn_counts.data();
  assert(profile_->insn_counts.size() == code.size() && "profile sized for another program");
  for (const std::size_t end : run_ends_) {
    const auto target = static_cast<std::size_t>(code[end].imm);
    if (target <= end && edges_[end] != 0) landings_[target] += edges_[end];
  }
  std::uint64_t live = pending_steps_;  // runs covering pc
  std::size_t pc = 0;
  for (const std::size_t end : run_ends_) {
    for (; pc <= end; ++pc) {
      live += landings_[pc];
      landings_[pc] = 0;
      counts[pc] += live;
    }
    // The runs that fall through to end + 1: none after a halt or jmp.
    const Op op = code[end].op;
    const auto target = static_cast<std::size_t>(code[end].imm);
    std::uint64_t next = 0;
    if (op != Op::kHalt && target > end) {
      next = op == Op::kJmp ? 0 : edges_[end];
      landings_[target] += live - next;
    } else if (op != Op::kHalt && op != Op::kJmp) {
      next = live - edges_[end] - aborted_[end];
    }
    live = next;
    edges_[end] = aborted_[end] = 0;
  }
  pending_steps_ = 0;
}

void Machine::RecordMarginSites(std::size_t at) const {
  for (auto k = margin_at_[at]; k < margin_at_[at + 1]; ++k) {
    RecordMargin(program_->margins[static_cast<std::size_t>(k)]);
  }
}

void Machine::Reset() {
  double* const state_d = dfile_.data() + dlay_.state;
  std::int64_t* const state_i = ifile_.data() + ilay_.state;
  for (std::size_t i = 0; i < program_->state_d.size(); ++i) state_d[i] = program_->state_d[i].init;
  for (std::size_t i = 0; i < program_->state_i.size(); ++i) {
    state_i[i] = ir::WrapToDType(TruncToI64(program_->state_i[i].init), program_->state_i[i].type);
  }
}

void Machine::SetInputs(std::span<const ir::Value> values) {
  for (std::size_t i = 0; i < values.size() && i < program_->input_types.size(); ++i) {
    const ir::Value v = values[i].CastTo(program_->input_types[i]);
    if (ir::DTypeIsFloat(program_->input_types[i])) {
      dfile_[static_cast<std::size_t>(dlay_.in) + i] = v.AsDouble();
    } else {
      ifile_[static_cast<std::size_t>(ilay_.in) + i] = v.AsInt64();
    }
  }
}

ir::Value Machine::GetOutput(int index) const {
  const auto i = static_cast<std::size_t>(index);
  const ir::DType t = program_->output_types[i];
  if (ir::DTypeIsFloat(t)) return ir::Value::Real(t, dfile_[At(dlay_.out, index)]);
  return ir::Value::Int(t, ifile_[At(ilay_.out, index)]);
}

bool Machine::Step(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  if constexpr (kNativeTarget) {
    if (const NativeCode* code = NativeForConfig(); code != nullptr) {
      return StepNative(*code, sink, edge_map);
    }
  }
  return StepBytecode(sink, edge_map);
}

std::size_t Machine::native_code_bytes() const {
  std::size_t bytes = 0;
  for (const NativeCode& code : native_.code) bytes += code.code_bytes();
  return bytes;
}

const NativeCode* Machine::NativeForConfig() {
  if (native_.refused) return nullptr;
  const bool counting = profile_ != nullptr;
  const bool margins = margins_ != nullptr;
  NativeCode& code = native_.code[(counting ? 1U : 0U) + (margins ? 2U : 0U)];
  if (!code) {
    const auto start = std::chrono::steady_clock::now();
    const NativeConfig config{counting, margins};
    const NativeHooks hooks{&Machine::NativeSlow, &Machine::NativeMargins};
    code = TranslateX64(*program_, dlay_, ilay_, config, hooks);
    if (!code) {
      native_.refused = true;
      return nullptr;
    }
    native_.translate_us +=
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return &code;
}

bool Machine::StepNative(const NativeCode& code, coverage::CoverageSink* sink,
                         std::uint8_t* edge_map) {
  NativeFrame f;
  f.d = dfile_.data();
  f.r = ifile_.data();
  f.cov = sink != nullptr ? sink->curr_words() : dropped_cov_.data();
  f.edges = edge_map != nullptr ? edge_map : dropped_edges_.data();
  f.known_evals = sink != nullptr ? sink->known_evals() : dropped_evals_.data();
  f.cmp_trace = cmp_trace_;
  f.back_jumps = step_budget_ == 0 ? std::numeric_limits<std::uint64_t>::max() : step_budget_;
  f.sink = sink;
  f.owner = this;
  // The count plane as in StepImpl: Step entries here, taken transfers in
  // the code, hang aborts below.
  if (profile_ != nullptr) {
    ++profile_->steps;
    ++pending_steps_;
    f.edges_counted = edges_.data();
  }
  const std::int64_t end = code.Run(&f);
  if (end < 0) return true;
  if (profile_ != nullptr) ++aborted_[static_cast<std::size_t>(end)];
  return false;
}

void Machine::NativeSlow(NativeFrame* frame, std::int32_t pc) {
  const auto* m = static_cast<const Machine*>(frame->owner);
  const Insn& in = m->program_->code[static_cast<std::size_t>(pc)];
  if (in.op == Op::kMcdcEval) {
    RecordMcdc(frame->sink, in, frame->r);
  } else {
    assert(!EffectOf(in.op).jumps && in.op != Op::kHalt && "control flow is always inline");
    Compute(in.op, in, frame->d, frame->r);
  }
}

void Machine::NativeMargins(NativeFrame* frame, std::int32_t pc) {
  static_cast<const Machine*>(frame->owner)->RecordMarginSites(static_cast<std::size_t>(pc));
}

bool Machine::StepBytecode(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  if (margins_ != nullptr) return StepWith<true>(sink, edge_map);
  return StepWith<false>(sink, edge_map);
}

template <bool kRecordMargins>
bool Machine::StepWith(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  // Specialized dispatch loops: the detached path compiles with zero
  // profiling code (not even a per-dispatch branch), the counting path is
  // one increment per Step and per counted transfer.
  if (profile_ == nullptr) return StepImpl<false, kRecordMargins>(sink, edge_map);
  return StepImpl<true, kRecordMargins>(sink, edge_map);
}

template <bool kCounting, bool kRecordMargins>
bool Machine::StepImpl(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  const Insn* const code = program_->code.data();
  const Insn* ip = code;
  double* const d = dfile_.data();
  std::int64_t* const r = ifile_.data();
  double* const in_d = d + dlay_.in;
  double* const out_d = d + dlay_.out;
  double* const state_d = d + dlay_.state;
  std::int64_t* const in_i = r + ilay_.in;
  std::int64_t* const out_i = r + ilay_.out;
  std::int64_t* const state_i = r + ilay_.state;
  // Back-edge budget: decremented only on backward control transfers, so the
  // common straight-line path pays nothing. 0 configured = unlimited.
  std::uint64_t back_jumps =
      step_budget_ == 0 ? std::numeric_limits<std::uint64_t>::max() : step_budget_;
  // Counting records each Step entry, each backward transfer taken and each
  // forward jz/jnz/br.* not taken (at the transfer), and FlushProfile()
  // expands them into per-instruction dispatch counts, including the final
  // kHalt and the aborted tail of a hang; a forward transfer taken costs
  // nothing here.
  [[maybe_unused]] std::uint64_t* edges = edges_.data();
  if constexpr (kCounting) {
    ++profile_->steps;
    ++pending_steps_;
  }
  // Hang abort at `pc` (back-edge budget exhausted): count it, then false.
  // It takes pc rather than capturing ip, which would keep ip out of a
  // register.
  auto abort_hang = [&](std::ptrdiff_t pc) -> bool {
    if constexpr (kCounting) ++aborted_[static_cast<std::size_t>(pc)];
    return false;
  };

  // Token-threaded dispatch: one handler per opcode, in Op order, and every
  // handler ends in its own indirect jump through this table. The
  // static_assert holds its length; MachineTest.EveryOpcodeComputesItsOwnResult
  // holds its order (a swapped pair of handlers fails it).
  static const void* const kHandlers[] = {
      &&halt,
      &&ldc_d, &&ldc_i, &&mov_d, &&mov_i,
      &&cvt_d2i, &&cvt_i2d, &&wrap_i, &&bool_d, &&bool_i,
      &&add_d, &&sub_d, &&mul_d, &&div_d, &&min_d, &&max_d, &&mod_d, &&rem_d, &&pow_d,
      &&atan2_d, &&neg_d, &&abs_d, &&sign_d, &&sqrt_d, &&exp_d, &&log_d, &&floor_d,
      &&ceil_d, &&round_d, &&sin_d, &&cos_d, &&tan_d,
      &&add_i, &&sub_i, &&mul_i, &&div_i, &&min_i, &&max_i, &&mod_i, &&rem_i, &&neg_i,
      &&abs_i, &&sign_i, &&and_i, &&or_i, &&xor_i, &&shl_i, &&shr_i,
      &&not_l,
      &&lt_d, &&le_d, &&gt_d, &&ge_d, &&eq_d, &&ne_d,
      &&lt_i, &&le_i, &&gt_i, &&ge_i, &&eq_i, &&ne_i,
      &&br_lt_d, &&br_le_d, &&br_gt_d, &&br_ge_d, &&br_eq_d, &&br_ne_d,
      &&br_lt_i, &&br_le_i, &&br_gt_i, &&br_ge_i, &&br_eq_i, &&br_ne_i,
      &&jmp, &&jz, &&jnz,
      &&ldin_d, &&ldin_i, &&stout_d, &&stout_i, &&ldst_d, &&ldst_i, &&stst_d, &&stst_i,
      &&cov, &&edge, &&mcdc, &&cov_if, &&cov_cond,
  };
  static_assert(std::size(kHandlers) == kNumOps, "one dispatch-table entry per opcode");

// Dispatches *ip. The prologue runs once per dispatch: the margin sites of
// the program point before ip (on fall-through and jump landing alike).
#define CFTCG_VM_DISPATCH                                      \
  do {                                                         \
    if constexpr (kRecordMargins) RecordMarginsAt(ip - code);  \
    goto* kHandlers[static_cast<std::size_t>(ip->op)];         \
  } while (false)
// Continues at the next instruction (also a transfer not taken).
#define CFTCG_VM_NEXT  \
  do {                 \
    ++ip;              \
    CFTCG_VM_DISPATCH; \
  } while (false)
// A control transfer taken to ip->imm; a backward one spends the budget
// and is counted.
#define CFTCG_VM_JUMP                                            \
  do {                                                           \
    const Insn* const target = code + ip->imm;                   \
    if (target <= ip) {                                          \
      if (--back_jumps == 0) return abort_hang(ip - code);       \
      if constexpr (kCounting) ++edges[ip - code];               \
    }                                                            \
    ip = target;                                                 \
    CFTCG_VM_DISPATCH;                                           \
  } while (false)
// A jz/jnz/br.* not taken; a forward one counts its fall-through.
#define CFTCG_VM_FALL_THROUGH                                    \
  do {                                                           \
    if constexpr (kCounting) {                                   \
      if (ip->imm > ip - code) ++edges[ip - code];               \
    }                                                            \
    CFTCG_VM_NEXT;                                               \
  } while (false)
// Fused compare-and-branch: the comparison's flag is still written, then
// the jz it replaced is taken when the flag is 0.
#define CFTCG_VM_BRANCH_IF_ZERO            \
  do {                                     \
    if (r[ip->dst] == 0) CFTCG_VM_JUMP;    \
    CFTCG_VM_FALL_THROUGH;                 \
  } while (false)

  CFTCG_VM_DISPATCH;

// Data instructions run Compute with their opcode as a constant (so its
// switch folds away); fused compare-and-branches compute the flag, then
// take the jz.
halt:
  return true;
ldc_d: Compute(Op::kLoadConstD, *ip, d, r); CFTCG_VM_NEXT;
ldc_i: Compute(Op::kLoadConstI, *ip, d, r); CFTCG_VM_NEXT;
mov_d: Compute(Op::kMovD, *ip, d, r); CFTCG_VM_NEXT;
mov_i: Compute(Op::kMovI, *ip, d, r); CFTCG_VM_NEXT;
cvt_d2i: Compute(Op::kCvtDToI, *ip, d, r); CFTCG_VM_NEXT;
cvt_i2d: Compute(Op::kCvtIToD, *ip, d, r); CFTCG_VM_NEXT;
wrap_i: Compute(Op::kWrapI, *ip, d, r); CFTCG_VM_NEXT;
bool_d: Compute(Op::kBoolD, *ip, d, r); CFTCG_VM_NEXT;
bool_i: Compute(Op::kBoolI, *ip, d, r); CFTCG_VM_NEXT;

add_d: Compute(Op::kAddD, *ip, d, r); CFTCG_VM_NEXT;
sub_d: Compute(Op::kSubD, *ip, d, r); CFTCG_VM_NEXT;
mul_d: Compute(Op::kMulD, *ip, d, r); CFTCG_VM_NEXT;
div_d: Compute(Op::kDivD, *ip, d, r); CFTCG_VM_NEXT;
min_d: Compute(Op::kMinD, *ip, d, r); CFTCG_VM_NEXT;
max_d: Compute(Op::kMaxD, *ip, d, r); CFTCG_VM_NEXT;
mod_d: Compute(Op::kModD, *ip, d, r); CFTCG_VM_NEXT;
rem_d: Compute(Op::kRemD, *ip, d, r); CFTCG_VM_NEXT;
pow_d: Compute(Op::kPowD, *ip, d, r); CFTCG_VM_NEXT;
atan2_d: Compute(Op::kAtan2D, *ip, d, r); CFTCG_VM_NEXT;
neg_d: Compute(Op::kNegD, *ip, d, r); CFTCG_VM_NEXT;
abs_d: Compute(Op::kAbsD, *ip, d, r); CFTCG_VM_NEXT;
sign_d: Compute(Op::kSignD, *ip, d, r); CFTCG_VM_NEXT;
sqrt_d: Compute(Op::kSqrtD, *ip, d, r); CFTCG_VM_NEXT;
exp_d: Compute(Op::kExpD, *ip, d, r); CFTCG_VM_NEXT;
log_d: Compute(Op::kLogD, *ip, d, r); CFTCG_VM_NEXT;
floor_d: Compute(Op::kFloorD, *ip, d, r); CFTCG_VM_NEXT;
ceil_d: Compute(Op::kCeilD, *ip, d, r); CFTCG_VM_NEXT;
round_d: Compute(Op::kRoundD, *ip, d, r); CFTCG_VM_NEXT;
sin_d: Compute(Op::kSinD, *ip, d, r); CFTCG_VM_NEXT;
cos_d: Compute(Op::kCosD, *ip, d, r); CFTCG_VM_NEXT;
tan_d: Compute(Op::kTanD, *ip, d, r); CFTCG_VM_NEXT;

add_i: Compute(Op::kAddI, *ip, d, r); CFTCG_VM_NEXT;
sub_i: Compute(Op::kSubI, *ip, d, r); CFTCG_VM_NEXT;
mul_i: Compute(Op::kMulI, *ip, d, r); CFTCG_VM_NEXT;
div_i: Compute(Op::kDivI, *ip, d, r); CFTCG_VM_NEXT;
min_i: Compute(Op::kMinI, *ip, d, r); CFTCG_VM_NEXT;
max_i: Compute(Op::kMaxI, *ip, d, r); CFTCG_VM_NEXT;
mod_i: Compute(Op::kModI, *ip, d, r); CFTCG_VM_NEXT;
rem_i: Compute(Op::kRemI, *ip, d, r); CFTCG_VM_NEXT;
neg_i: Compute(Op::kNegI, *ip, d, r); CFTCG_VM_NEXT;
abs_i: Compute(Op::kAbsI, *ip, d, r); CFTCG_VM_NEXT;
sign_i: Compute(Op::kSignI, *ip, d, r); CFTCG_VM_NEXT;
and_i: Compute(Op::kAndBitsI, *ip, d, r); CFTCG_VM_NEXT;
or_i: Compute(Op::kOrBitsI, *ip, d, r); CFTCG_VM_NEXT;
xor_i: Compute(Op::kXorBitsI, *ip, d, r); CFTCG_VM_NEXT;
shl_i: Compute(Op::kShlI, *ip, d, r); CFTCG_VM_NEXT;
shr_i: Compute(Op::kShrI, *ip, d, r); CFTCG_VM_NEXT;
not_l: Compute(Op::kNotL, *ip, d, r); CFTCG_VM_NEXT;

lt_d: Compute(Op::kLtD, *ip, d, r); CFTCG_VM_NEXT;
le_d: Compute(Op::kLeD, *ip, d, r); CFTCG_VM_NEXT;
gt_d: Compute(Op::kGtD, *ip, d, r); CFTCG_VM_NEXT;
ge_d: Compute(Op::kGeD, *ip, d, r); CFTCG_VM_NEXT;
eq_d:
  Compute(Op::kEqD, *ip, d, r);
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_NEXT;
ne_d:
  Compute(Op::kNeD, *ip, d, r);
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_NEXT;
lt_i: Compute(Op::kLtI, *ip, d, r); CFTCG_VM_NEXT;
le_i: Compute(Op::kLeI, *ip, d, r); CFTCG_VM_NEXT;
gt_i: Compute(Op::kGtI, *ip, d, r); CFTCG_VM_NEXT;
ge_i: Compute(Op::kGeI, *ip, d, r); CFTCG_VM_NEXT;
eq_i:
  Compute(Op::kEqI, *ip, d, r);
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_NEXT;
ne_i:
  Compute(Op::kNeI, *ip, d, r);
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_NEXT;

br_lt_d: Compute(Op::kLtD, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_le_d: Compute(Op::kLeD, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_gt_d: Compute(Op::kGtD, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_ge_d: Compute(Op::kGeD, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_eq_d:
  Compute(Op::kEqD, *ip, d, r);
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;
br_ne_d:
  Compute(Op::kNeD, *ip, d, r);
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;
br_lt_i: Compute(Op::kLtI, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_le_i: Compute(Op::kLeI, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_gt_i: Compute(Op::kGtI, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_ge_i: Compute(Op::kGeI, *ip, d, r); CFTCG_VM_BRANCH_IF_ZERO;
br_eq_i:
  Compute(Op::kEqI, *ip, d, r);
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;
br_ne_i:
  Compute(Op::kNeI, *ip, d, r);
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;

jmp: CFTCG_VM_JUMP;
jz:
  if (r[ip->a] == 0) CFTCG_VM_JUMP;
  CFTCG_VM_FALL_THROUGH;
jnz:
  if (r[ip->a] != 0) CFTCG_VM_JUMP;
  CFTCG_VM_FALL_THROUGH;

ldin_d: d[ip->dst] = in_d[ip->imm]; CFTCG_VM_NEXT;
ldin_i: r[ip->dst] = in_i[ip->imm]; CFTCG_VM_NEXT;
stout_d: out_d[ip->imm] = d[ip->a]; CFTCG_VM_NEXT;
stout_i: out_i[ip->imm] = r[ip->a]; CFTCG_VM_NEXT;
ldst_d: d[ip->dst] = state_d[ip->imm]; CFTCG_VM_NEXT;
ldst_i: r[ip->dst] = state_i[ip->imm]; CFTCG_VM_NEXT;
stst_d: state_d[ip->imm] = d[ip->a]; CFTCG_VM_NEXT;
stst_i: state_i[ip->imm] = r[ip->a]; CFTCG_VM_NEXT;

cov:
  if (sink != nullptr) sink->Hit(ip->imm);
  CFTCG_VM_NEXT;
edge:
  if (edge_map != nullptr) edge_map[ip->imm] = 1;
  CFTCG_VM_NEXT;
mcdc:
  RecordMcdc(sink, *ip, r);
  CFTCG_VM_NEXT;
cov_if:
  if (sink != nullptr) sink->Hit(r[ip->a] != 0 ? ip->imm : ip->aux);
  CFTCG_VM_NEXT;
cov_cond: {
  const bool value = r[ip->a] != 0;
  const auto bit = TruncToI64(ip->dimm);
  if (ip->b >= 0) r[ip->b] |= bit;
  if (value) r[ip->dst] |= bit;
  if (sink != nullptr) sink->Hit(value ? ip->imm : ip->aux);
  CFTCG_VM_NEXT;
}

#undef CFTCG_VM_BRANCH_IF_ZERO
#undef CFTCG_VM_FALL_THROUGH
#undef CFTCG_VM_JUMP
#undef CFTCG_VM_NEXT
#undef CFTCG_VM_DISPATCH
}

}  // namespace cftcg::vm
