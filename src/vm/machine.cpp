#include "vm/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>

#include "support/numerics.hpp"

namespace cftcg::vm {

using namespace cftcg::num;


Machine::Machine(const Program& program) : program_(&program) {
  dregs_.assign(static_cast<std::size_t>(program.num_dregs), 0.0);
  iregs_.assign(static_cast<std::size_t>(program.num_iregs), 0);
  in_d_.assign(program.input_types.size(), 0.0);
  in_i_.assign(program.input_types.size(), 0);
  out_d_.assign(program.output_types.size(), 0.0);
  out_i_.assign(program.output_types.size(), 0);
  state_d_.resize(program.state_d.size());
  state_i_.resize(program.state_i.size());
  // The constant pool: no instruction writes these registers, so one
  // preload here serves every Step().
  for (const auto& c : program.const_d) dregs_[static_cast<std::size_t>(c.reg)] = c.value;
  for (const auto& c : program.const_i) iregs_[static_cast<std::size_t>(c.reg)] = c.value;
  // margin_at_[pc] = number of margin sites before pc (they are pc-sorted).
  margin_at_.assign(program.code.size() + 1, 0);
  for (const MarginSite& m : program.margins) {
    assert(static_cast<std::size_t>(m.pc) < program.code.size() && "margin site past the code");
    ++margin_at_[static_cast<std::size_t>(m.pc) + 1];
  }
  std::partial_sum(margin_at_.begin(), margin_at_.end(), margin_at_.begin());
  taken_.assign(program.code.size(), 0);
  aborted_.assign(program.code.size(), 0);
  landings_.assign(program.code.size(), 0);
  for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
    const Op op = program.code[pc].op;
    if (op == Op::kHalt || EffectOf(op).jumps) run_ends_.push_back(pc);
  }
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
  // through — as often as it ran, less the times it was taken or aborted.
  // So once the taken counts are added onto their targets, one upward sweep
  // recovers every instruction's dispatch count, and clears the pending
  // counts behind it.
  const std::vector<Insn>& code = program_->code;
  std::uint64_t* counts = profile_->insn_counts.data();
  assert(profile_->insn_counts.size() == code.size() && "profile sized for another program");
  for (const std::size_t end : run_ends_) {
    if (taken_[end] != 0) landings_[static_cast<std::size_t>(code[end].imm)] += taken_[end];
  }
  std::uint64_t live = pending_steps_;  // runs covering pc
  std::size_t pc = 0;
  for (const std::size_t end : run_ends_) {
    for (; pc <= end; ++pc) {
      live += landings_[pc];
      landings_[pc] = 0;
      counts[pc] += live;
    }
    // The runs that fall through to end + 1 (none after a halt or jmp).
    const Op op = code[end].op;
    live = op == Op::kHalt || op == Op::kJmp ? 0 : live - taken_[end] - aborted_[end];
    taken_[end] = aborted_[end] = 0;
  }
  pending_steps_ = 0;
}

void Machine::RecordMarginSites(std::size_t at) const {
  for (auto k = margin_at_[at]; k < margin_at_[at + 1]; ++k) {
    RecordMargin(program_->margins[static_cast<std::size_t>(k)]);
  }
}

void Machine::Reset() {
  for (std::size_t i = 0; i < state_d_.size(); ++i) state_d_[i] = program_->state_d[i].init;
  for (std::size_t i = 0; i < state_i_.size(); ++i) {
    state_i_[i] = ir::WrapToDType(static_cast<std::int64_t>(program_->state_i[i].init),
                                  program_->state_i[i].type);
  }
}

void Machine::SetInputs(std::span<const ir::Value> values) {
  for (std::size_t i = 0; i < values.size() && i < program_->input_types.size(); ++i) {
    const ir::Value v = values[i].CastTo(program_->input_types[i]);
    if (ir::DTypeIsFloat(program_->input_types[i])) {
      in_d_[i] = v.AsDouble();
    } else {
      in_i_[i] = v.AsInt64();
    }
  }
}

ir::Value Machine::GetOutput(int index) const {
  const auto i = static_cast<std::size_t>(index);
  const ir::DType t = program_->output_types[i];
  if (ir::DTypeIsFloat(t)) return ir::Value::Real(t, out_d_[i]);
  return ir::Value::Int(t, out_i_[i]);
}

bool Machine::Step(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  if (margins_ != nullptr) return StepWith<true>(sink, edge_map);
  return StepWith<false>(sink, edge_map);
}

template <bool kRecordMargins>
bool Machine::StepWith(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  // Specialized dispatch loops: the detached path compiles with zero
  // profiling code (not even a per-dispatch branch), the count-only path is
  // one increment per taken transfer, and only the strobe path carries the
  // per-dispatch sampling countdown.
  if (profile_ == nullptr) return StepImpl<ProfileMode::kOff, kRecordMargins>(sink, edge_map);
  if (profile_->strobe_period == 0) {
    return StepImpl<ProfileMode::kCount, kRecordMargins>(sink, edge_map);
  }
  return StepImpl<ProfileMode::kStrobe, kRecordMargins>(sink, edge_map);
}

template <Machine::ProfileMode kMode, bool kRecordMargins>
bool Machine::StepImpl(coverage::CoverageSink* sink, std::uint8_t* edge_map) {
  constexpr bool kCounting = kMode != ProfileMode::kOff;
  constexpr bool kStrobing = kMode == ProfileMode::kStrobe;
  const Insn* const code = program_->code.data();
  const Insn* ip = code;
  double* d = dregs_.data();
  std::int64_t* r = iregs_.data();
  // Back-edge budget: decremented only on backward control transfers, so the
  // common straight-line path pays nothing. 0 configured = unlimited.
  std::uint64_t back_jumps =
      step_budget_ == 0 ? std::numeric_limits<std::uint64_t>::max() : step_budget_;
  // Counting records each Step entry and each taken transfer (at the
  // transfer), and FlushProfile() expands them into per-instruction dispatch
  // counts, including the final kHalt and the aborted tail of a hang; a
  // transfer not taken costs nothing here. The strobe countdown lives in a
  // register for the duration of the iteration and is written back at every
  // exit, so the sampled positions stay a pure function of the executed
  // instruction stream across Step() calls.
  [[maybe_unused]] std::uint64_t* taken = taken_.data();
  [[maybe_unused]] std::uint64_t* samples = nullptr;
  [[maybe_unused]] std::uint64_t strobe_period = 0;
  [[maybe_unused]] std::uint64_t strobe_countdown = 0;
  if constexpr (kCounting) {
    ++profile_->steps;
    ++pending_steps_;
  }
  if constexpr (kStrobing) {
    samples = profile_->insn_samples.data();
    strobe_period = profile_->strobe_period;
    strobe_countdown = profile_->strobe_countdown;
  }
  // Hang abort at `pc` (back-edge budget exhausted): count it, flush strobe
  // state, then false. It takes pc rather than capturing ip, which would
  // keep ip out of a register.
  auto abort_hang = [&](std::ptrdiff_t pc) -> bool {
    if constexpr (kCounting) ++aborted_[static_cast<std::size_t>(pc)];
    if constexpr (kStrobing) profile_->strobe_countdown = strobe_countdown;
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
// the program point before ip (on fall-through and jump landing alike), and
// the instruction-count strobe (timed mode: one sample every N dispatches,
// no clock read).
#define CFTCG_VM_DISPATCH                                      \
  do {                                                         \
    if constexpr (kRecordMargins) RecordMarginsAt(ip - code);  \
    if constexpr (kStrobing) {                                 \
      if (--strobe_countdown == 0) {                           \
        strobe_countdown = strobe_period;                      \
        ++samples[ip - code];                                  \
      }                                                        \
    }                                                          \
    goto* kHandlers[static_cast<std::size_t>(ip->op)];         \
  } while (false)
// Continues at the next instruction (also a transfer not taken).
#define CFTCG_VM_NEXT  \
  do {                 \
    ++ip;              \
    CFTCG_VM_DISPATCH; \
  } while (false)
// A control transfer taken to ip->imm; a backward one spends the budget.
#define CFTCG_VM_JUMP                                            \
  do {                                                           \
    const Insn* const target = code + ip->imm;                   \
    if (target <= ip && --back_jumps == 0) {                     \
      return abort_hang(ip - code);                              \
    }                                                            \
    if constexpr (kCounting) ++taken[ip - code];                 \
    ip = target;                                                 \
    CFTCG_VM_DISPATCH;                                           \
  } while (false)
// Fused compare-and-branch: the comparison's flag is still written, then
// the jz it replaced is taken when the flag is 0.
#define CFTCG_VM_BRANCH_IF_ZERO            \
  do {                                     \
    if (r[ip->dst] == 0) CFTCG_VM_JUMP;    \
    CFTCG_VM_NEXT;                         \
  } while (false)

  CFTCG_VM_DISPATCH;

halt:
  if constexpr (kStrobing) profile_->strobe_countdown = strobe_countdown;
  return true;
ldc_d: d[ip->dst] = ip->dimm; CFTCG_VM_NEXT;
ldc_i:
  // Wrap to the declared width: an out-of-range literal (e.g. a negative
  // saturation bound wired to an unsigned signal) must behave like the same
  // assignment in the generated C.
  r[ip->dst] = ir::WrapToDType(static_cast<std::int64_t>(ip->dimm), ip->type);
  CFTCG_VM_NEXT;
mov_d: d[ip->dst] = d[ip->a]; CFTCG_VM_NEXT;
mov_i: r[ip->dst] = r[ip->a]; CFTCG_VM_NEXT;
cvt_d2i: r[ip->dst] = ir::WrapToDType(TruncToI64(d[ip->a]), ip->type); CFTCG_VM_NEXT;
cvt_i2d: d[ip->dst] = static_cast<double>(r[ip->a]); CFTCG_VM_NEXT;
wrap_i: r[ip->dst] = ir::WrapToDType(r[ip->a], ip->type); CFTCG_VM_NEXT;
bool_d: r[ip->dst] = d[ip->a] != 0.0; CFTCG_VM_NEXT;
bool_i: r[ip->dst] = r[ip->a] != 0; CFTCG_VM_NEXT;

add_d: d[ip->dst] = d[ip->a] + d[ip->b]; CFTCG_VM_NEXT;
sub_d: d[ip->dst] = d[ip->a] - d[ip->b]; CFTCG_VM_NEXT;
mul_d: d[ip->dst] = d[ip->a] * d[ip->b]; CFTCG_VM_NEXT;
div_d: d[ip->dst] = SafeDiv(d[ip->a], d[ip->b]); CFTCG_VM_NEXT;
min_d: d[ip->dst] = std::fmin(d[ip->a], d[ip->b]); CFTCG_VM_NEXT;
max_d: d[ip->dst] = std::fmax(d[ip->a], d[ip->b]); CFTCG_VM_NEXT;
mod_d: d[ip->dst] = SafeMod(d[ip->a], d[ip->b]); CFTCG_VM_NEXT;
rem_d: d[ip->dst] = SafeRem(d[ip->a], d[ip->b]); CFTCG_VM_NEXT;
pow_d: d[ip->dst] = Finite(std::pow(d[ip->a], d[ip->b])); CFTCG_VM_NEXT;
atan2_d: d[ip->dst] = std::atan2(d[ip->a], d[ip->b]); CFTCG_VM_NEXT;
neg_d: d[ip->dst] = -d[ip->a]; CFTCG_VM_NEXT;
abs_d: d[ip->dst] = std::fabs(d[ip->a]); CFTCG_VM_NEXT;
sign_d: d[ip->dst] = (d[ip->a] > 0.0) ? 1.0 : ((d[ip->a] < 0.0) ? -1.0 : 0.0); CFTCG_VM_NEXT;
sqrt_d: d[ip->dst] = SafeSqrt(d[ip->a]); CFTCG_VM_NEXT;
exp_d: d[ip->dst] = Finite(std::exp(d[ip->a])); CFTCG_VM_NEXT;
log_d: d[ip->dst] = SafeLog(d[ip->a]); CFTCG_VM_NEXT;
floor_d: d[ip->dst] = std::floor(d[ip->a]); CFTCG_VM_NEXT;
ceil_d: d[ip->dst] = std::ceil(d[ip->a]); CFTCG_VM_NEXT;
round_d: d[ip->dst] = std::nearbyint(d[ip->a]); CFTCG_VM_NEXT;
sin_d: d[ip->dst] = std::sin(d[ip->a]); CFTCG_VM_NEXT;
cos_d: d[ip->dst] = std::cos(d[ip->a]); CFTCG_VM_NEXT;
tan_d: d[ip->dst] = Finite(std::tan(d[ip->a])); CFTCG_VM_NEXT;

add_i: r[ip->dst] = ir::WrapToDType(r[ip->a] + r[ip->b], ip->type); CFTCG_VM_NEXT;
sub_i: r[ip->dst] = ir::WrapToDType(r[ip->a] - r[ip->b], ip->type); CFTCG_VM_NEXT;
mul_i: r[ip->dst] = ir::WrapToDType(r[ip->a] * r[ip->b], ip->type); CFTCG_VM_NEXT;
div_i: r[ip->dst] = ir::WrapToDType(SafeDivI(r[ip->a], r[ip->b]), ip->type); CFTCG_VM_NEXT;
min_i: r[ip->dst] = r[ip->a] < r[ip->b] ? r[ip->a] : r[ip->b]; CFTCG_VM_NEXT;
max_i: r[ip->dst] = r[ip->a] > r[ip->b] ? r[ip->a] : r[ip->b]; CFTCG_VM_NEXT;
mod_i: r[ip->dst] = ir::WrapToDType(SafeModI(r[ip->a], r[ip->b]), ip->type); CFTCG_VM_NEXT;
rem_i: r[ip->dst] = ir::WrapToDType(SafeRemI(r[ip->a], r[ip->b]), ip->type); CFTCG_VM_NEXT;
neg_i: r[ip->dst] = ir::WrapToDType(-r[ip->a], ip->type); CFTCG_VM_NEXT;
abs_i: r[ip->dst] = ir::WrapToDType(r[ip->a] < 0 ? -r[ip->a] : r[ip->a], ip->type); CFTCG_VM_NEXT;
sign_i: r[ip->dst] = (r[ip->a] > 0) ? 1 : ((r[ip->a] < 0) ? -1 : 0); CFTCG_VM_NEXT;
and_i: r[ip->dst] = ir::WrapToDType(r[ip->a] & r[ip->b], ip->type); CFTCG_VM_NEXT;
or_i: r[ip->dst] = ir::WrapToDType(r[ip->a] | r[ip->b], ip->type); CFTCG_VM_NEXT;
xor_i: r[ip->dst] = ir::WrapToDType(r[ip->a] ^ r[ip->b], ip->type); CFTCG_VM_NEXT;
shl_i: {
  const auto sh = static_cast<std::uint64_t>(r[ip->b] & 63);
  r[ip->dst] = ir::WrapToDType(
      static_cast<std::int64_t>(static_cast<std::uint64_t>(r[ip->a]) << sh), ip->type);
  CFTCG_VM_NEXT;
}
shr_i: {
  const auto sh = r[ip->b] & 63;
  r[ip->dst] = ir::WrapToDType(r[ip->a] >> sh, ip->type);
  CFTCG_VM_NEXT;
}
not_l: r[ip->dst] = r[ip->a] == 0; CFTCG_VM_NEXT;

lt_d: r[ip->dst] = d[ip->a] < d[ip->b]; CFTCG_VM_NEXT;
le_d: r[ip->dst] = d[ip->a] <= d[ip->b]; CFTCG_VM_NEXT;
gt_d: r[ip->dst] = d[ip->a] > d[ip->b]; CFTCG_VM_NEXT;
ge_d: r[ip->dst] = d[ip->a] >= d[ip->b]; CFTCG_VM_NEXT;
eq_d:
  r[ip->dst] = d[ip->a] == d[ip->b];
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_NEXT;
ne_d:
  r[ip->dst] = d[ip->a] != d[ip->b];
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_NEXT;
lt_i: r[ip->dst] = r[ip->a] < r[ip->b]; CFTCG_VM_NEXT;
le_i: r[ip->dst] = r[ip->a] <= r[ip->b]; CFTCG_VM_NEXT;
gt_i: r[ip->dst] = r[ip->a] > r[ip->b]; CFTCG_VM_NEXT;
ge_i: r[ip->dst] = r[ip->a] >= r[ip->b]; CFTCG_VM_NEXT;
eq_i:
  r[ip->dst] = r[ip->a] == r[ip->b];
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_NEXT;
ne_i:
  r[ip->dst] = r[ip->a] != r[ip->b];
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_NEXT;

br_lt_d: r[ip->dst] = d[ip->a] < d[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_le_d: r[ip->dst] = d[ip->a] <= d[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_gt_d: r[ip->dst] = d[ip->a] > d[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_ge_d: r[ip->dst] = d[ip->a] >= d[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_eq_d:
  r[ip->dst] = d[ip->a] == d[ip->b];
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;
br_ne_d:
  r[ip->dst] = d[ip->a] != d[ip->b];
  TraceEqD(d[ip->a], d[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;
br_lt_i: r[ip->dst] = r[ip->a] < r[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_le_i: r[ip->dst] = r[ip->a] <= r[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_gt_i: r[ip->dst] = r[ip->a] > r[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_ge_i: r[ip->dst] = r[ip->a] >= r[ip->b]; CFTCG_VM_BRANCH_IF_ZERO;
br_eq_i:
  r[ip->dst] = r[ip->a] == r[ip->b];
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;
br_ne_i:
  r[ip->dst] = r[ip->a] != r[ip->b];
  TraceEqI(r[ip->a], r[ip->b]);
  CFTCG_VM_BRANCH_IF_ZERO;

jmp: CFTCG_VM_JUMP;
jz:
  if (r[ip->a] == 0) CFTCG_VM_JUMP;
  CFTCG_VM_NEXT;
jnz:
  if (r[ip->a] != 0) CFTCG_VM_JUMP;
  CFTCG_VM_NEXT;

ldin_d: d[ip->dst] = in_d_[static_cast<std::size_t>(ip->imm)]; CFTCG_VM_NEXT;
ldin_i: r[ip->dst] = in_i_[static_cast<std::size_t>(ip->imm)]; CFTCG_VM_NEXT;
stout_d: out_d_[static_cast<std::size_t>(ip->imm)] = d[ip->a]; CFTCG_VM_NEXT;
stout_i: out_i_[static_cast<std::size_t>(ip->imm)] = r[ip->a]; CFTCG_VM_NEXT;
ldst_d: d[ip->dst] = state_d_[static_cast<std::size_t>(ip->imm)]; CFTCG_VM_NEXT;
ldst_i: r[ip->dst] = state_i_[static_cast<std::size_t>(ip->imm)]; CFTCG_VM_NEXT;
stst_d: state_d_[static_cast<std::size_t>(ip->imm)] = d[ip->a]; CFTCG_VM_NEXT;
stst_i: state_i_[static_cast<std::size_t>(ip->imm)] = r[ip->a]; CFTCG_VM_NEXT;

cov:
  if (sink != nullptr) sink->Hit(ip->imm);
  CFTCG_VM_NEXT;
edge:
  if (edge_map != nullptr) edge_map[ip->imm] = 1;
  CFTCG_VM_NEXT;
mcdc:
  if (sink != nullptr) {
    sink->RecordEval(ip->imm, static_cast<std::uint32_t>(r[ip->a]),
                     static_cast<std::uint32_t>(r[ip->b]), static_cast<int>(r[ip->aux]));
  }
  CFTCG_VM_NEXT;
cov_if:
  if (sink != nullptr) sink->Hit(r[ip->a] != 0 ? ip->imm : ip->aux);
  CFTCG_VM_NEXT;
cov_cond: {
  const bool value = r[ip->a] != 0;
  const auto bit = static_cast<std::int64_t>(ip->dimm);
  if (ip->b >= 0) r[ip->b] |= bit;
  if (value) r[ip->dst] |= bit;
  if (sink != nullptr) sink->Hit(value ? ip->imm : ip->aux);
  CFTCG_VM_NEXT;
}

#undef CFTCG_VM_BRANCH_IF_ZERO
#undef CFTCG_VM_JUMP
#undef CFTCG_VM_NEXT
#undef CFTCG_VM_DISPATCH
}

}  // namespace cftcg::vm
