// Bytecode program representation.
//
// The lowering in src/codegen compiles a scheduled model into this register
// bytecode; the Machine in machine.hpp executes it. The bytecode plays the
// role of the paper's Clang-compiled fuzz code: straight-line typed register
// operations with real conditional jumps at every model decision, plus
// explicit coverage instructions inserted by the branch instrumentation.
//
// Register model:
//   * dregs: double registers (floating signals; kSingle is computed in
//     double precision — see DESIGN.md);
//   * iregs: int64 registers (integer/boolean signals, pre-wrapped to the
//     declared width by the instruction's `type`);
//   * in_d/in_i: per-field input slots filled by the driver from one tuple;
//   * out_d/out_i: root outport slots;
//   * state_d/state_i: persistent state (delays, chart state, ...);
//   * the constant pool: registers preloaded once when a Machine is built
//     (Program::const_d / const_i) and never written by any instruction, so
//     model constants cost no dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coverage/spec.hpp"
#include "ir/dtype.hpp"
#include "ir/value.hpp"

namespace cftcg::vm {

enum class Op : std::uint8_t {
  kHalt,
  // Constants and moves.
  kLoadConstD,  // dregs[dst] = dimm
  kLoadConstI,  // iregs[dst] = (int64)dimm (exact: all model ints fit 2^53)
  kMovD,        // dregs[dst] = dregs[a]
  kMovI,        // iregs[dst] = iregs[a]
  // Conversions.
  kCvtDToI,  // iregs[dst] = wrap(trunc(dregs[a]), type)
  kCvtIToD,  // dregs[dst] = (double)iregs[a]
  kWrapI,    // iregs[dst] = wrap(iregs[a], type)
  kBoolD,    // iregs[dst] = dregs[a] != 0
  kBoolI,    // iregs[dst] = iregs[a] != 0
  // Double arithmetic.
  kAddD, kSubD, kMulD, kDivD, kMinD, kMaxD, kModD, kRemD, kPowD, kAtan2D,
  kNegD, kAbsD, kSignD, kSqrtD, kExpD, kLogD, kFloorD, kCeilD, kRoundD,
  kSinD, kCosD, kTanD,
  // Integer arithmetic (results wrapped to `type`).
  kAddI, kSubI, kMulI, kDivI, kMinI, kMaxI, kModI, kRemI, kNegI, kAbsI, kSignI,
  kAndBitsI, kOrBitsI, kXorBitsI, kShlI, kShrI,
  kNotL,  // iregs[dst] = iregs[a] == 0
  // Comparisons (-> iregs 0/1).
  kLtD, kLeD, kGtD, kGeD, kEqD, kNeD,
  kLtI, kLeI, kGtI, kGeI, kEqI, kNeI,
  // Fused compare-and-branch: iregs[dst] = cmp(a, b); if (!iregs[dst])
  // pc = imm. One dispatch for a comparison and the jz on its result; the
  // eq/ne forms record TORC operands exactly like kEqD/kNeD/kEqI/kNeI.
  kBrLtD, kBrLeD, kBrGtD, kBrGeD, kBrEqD, kBrNeD,
  kBrLtI, kBrLeI, kBrGtI, kBrGeI, kBrEqI, kBrNeI,
  // Control flow.
  kJmp,           // pc = imm
  kJmpIfZero,     // if (!iregs[a]) pc = imm
  kJmpIfNotZero,  // if (iregs[a]) pc = imm
  // I/O and state.
  kLoadInD,     // dregs[dst] = in_d[imm]
  kLoadInI,     // iregs[dst] = in_i[imm]
  kStoreOutD,   // out_d[imm] = dregs[a]
  kStoreOutI,   // out_i[imm] = iregs[a]
  kLoadStateD,  // dregs[dst] = state_d[imm]
  kLoadStateI,  // iregs[dst] = state_i[imm]
  kStoreStateD, // state_d[imm] = dregs[a]
  kStoreStateI, // state_i[imm] = iregs[a]
  // Coverage instrumentation.
  kCov,       // sink->Hit(imm)                       [model-level]
  kEdge,      // edge_map[imm] = 1                    [code-level]
  kMcdcEval,  // sink->RecordEval(imm, iregs[a], iregs[b], iregs[aux])
  kCovIf,     // sink->Hit(iregs[a] ? imm : aux)      [one boolean's polarity]
  // One MCDC condition leaf: iregs[b] |= bit (the evaluated mask; b < 0 =
  // no mask register); if (iregs[a]) iregs[dst] |= bit (the values vector);
  // sink->Hit(iregs[a] ? imm : aux). bit = (int64)dimm. The register updates
  // happen with or without a sink.
  kCovCond,  // the last opcode: kNumOps counts through it
};

/// Number of opcodes. The Machine's dispatch table has one entry per opcode
/// and static_asserts this length; OpName covers every opcode below it.
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCovCond) + 1;

struct Insn {
  Op op = Op::kHalt;
  ir::DType type = ir::DType::kDouble;  // wrap width for integer ops
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t imm = 0;   // jump target / slot / decision id
  std::int32_t aux = 0;
  double dimm = 0.0;
};

/// A constant-pool register and the value the Machine preloads into it.
template <typename T>
struct PooledConst {
  std::int32_t reg = 0;
  T value{};
};

/// A register of either file; an int register reads as cvt.i2d would.
struct MarginOperand {
  bool is_float = true;
  std::int32_t reg = 0;
};

/// One branch-distance site: MarginRecorder::Record(decision, ge_outcome,
/// lt_outcome, margin), recorded by a Machine with a recorder attached just
/// before instruction `pc` dispatches, from the registers at that point.
struct MarginSite {
  enum class Kind : std::uint8_t {
    kDiff,        // lhs - rhs
    kNegAbsDiff,  // -|lhs - rhs| (==/!= guards: 0 means equal)
  };
  std::int32_t pc = 0;
  coverage::DecisionId decision = 0;
  std::int32_t ge_outcome = 0;
  std::int32_t lt_outcome = 0;
  MarginOperand lhs;
  MarginOperand rhs;
  Kind kind = Kind::kDiff;
};

struct StateSlot {
  bool is_float = true;
  double init = 0.0;       // initial value (also used for int slots)
  ir::DType type = ir::DType::kDouble;
  std::string name;        // "<block path>#<k>" for debugging
};

struct Program {
  std::vector<Insn> code;
  int num_dregs = 0;
  int num_iregs = 0;
  std::vector<StateSlot> state_d;
  std::vector<StateSlot> state_i;
  std::vector<ir::DType> input_types;   // tuple fields, root inport order
  std::vector<ir::DType> output_types;  // root outports
  // Root port names, parallel to input_types / output_types: the variable
  // names of the printed C (Figure 3).
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  int num_edges = 0;                    // code-level edge slots (kEdge)

  // Constant pool: preloaded by the Machine constructor, never written by
  // `code` (the lowering rejects a program that would write one).
  std::vector<PooledConst<double>> const_d;
  std::vector<PooledConst<std::int64_t>> const_i;

  // Block attribution (the self-profiler's VM plane): for every instruction,
  // the index into block_names of the model block whose lowering emitted it,
  // or -1 for scheduler glue (prologue jumps, the final kHalt). Parallel to
  // `code`; empty for hand-built programs, which profile as all-glue.
  std::vector<std::int32_t> insn_block;
  std::vector<std::string> block_names;  // block paths, first-emission order

  // Margin side table, sorted by pc. No instruction: a Machine reads it only
  // while a MarginRecorder is attached.
  std::vector<MarginSite> margins;

  /// Bytes of one input tuple (sum of input field sizes).
  [[nodiscard]] std::size_t TupleSize() const {
    std::size_t total = 0;
    for (auto t : input_types) total += ir::DTypeSize(t);
    return total;
  }
};

std::string_view OpName(Op op);

/// Insn fields that can name a register (bit set).
enum OperandField : std::uint8_t {
  kFieldDst = 1,
  kFieldA = 2,
  kFieldB = 4,
  kFieldAux = 8,
};

/// The registers one opcode reads and writes, as OperandField sets per
/// register file, and whether its `imm` is a jump target. A field holding a
/// negative register names none (kCovCond without a mask register).
struct OperandEffect {
  std::uint8_t read_d = 0;
  std::uint8_t read_i = 0;
  std::uint8_t write_d = 0;
  std::uint8_t write_i = 0;
  bool jumps = false;
};

/// The operand-effect table (one exhaustive switch: a new Op without an
/// entry is a -Wswitch warning). Passes that reason about registers or jump
/// targets — compare-and-branch fusion, the constant-pool write check — read
/// it instead of enumerating opcodes themselves.
OperandEffect EffectOf(Op op);

/// Calls f(reg) for every register named by the `fields` of `in`.
template <typename F>
void ForEachReg(const Insn& in, std::uint8_t fields, F&& f) {
  if ((fields & kFieldDst) != 0 && in.dst >= 0) f(in.dst);
  if ((fields & kFieldA) != 0 && in.a >= 0) f(in.a);
  if ((fields & kFieldB) != 0 && in.b >= 0) f(in.b);
  if ((fields & kFieldAux) != 0 && in.aux >= 0) f(in.aux);
}

/// The fused compare-and-branch form of a comparison opcode (kLtD ->
/// kBrLtD, ...), or kHalt when `op` is not a comparison.
Op FusedBranchOf(Op op);

/// Human-readable disassembly (debugging, golden tests): a header with the
/// register counts and the constant pool, then one line per instruction,
/// each preceded by the margin sites recorded before it.
std::string Disassemble(const Program& program);

}  // namespace cftcg::vm
