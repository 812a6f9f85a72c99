#include "vm/program.hpp"

#include "support/strings.hpp"

namespace cftcg::vm {

std::string_view OpName(Op op) {
  switch (op) {
    case Op::kHalt: return "halt";
    case Op::kLoadConstD: return "ldc.d";
    case Op::kLoadConstI: return "ldc.i";
    case Op::kMovD: return "mov.d";
    case Op::kMovI: return "mov.i";
    case Op::kCvtDToI: return "cvt.d2i";
    case Op::kCvtIToD: return "cvt.i2d";
    case Op::kWrapI: return "wrap.i";
    case Op::kBoolD: return "bool.d";
    case Op::kBoolI: return "bool.i";
    case Op::kAddD: return "add.d";
    case Op::kSubD: return "sub.d";
    case Op::kMulD: return "mul.d";
    case Op::kDivD: return "div.d";
    case Op::kMinD: return "min.d";
    case Op::kMaxD: return "max.d";
    case Op::kModD: return "mod.d";
    case Op::kRemD: return "rem.d";
    case Op::kPowD: return "pow.d";
    case Op::kAtan2D: return "atan2.d";
    case Op::kNegD: return "neg.d";
    case Op::kAbsD: return "abs.d";
    case Op::kSignD: return "sign.d";
    case Op::kSqrtD: return "sqrt.d";
    case Op::kExpD: return "exp.d";
    case Op::kLogD: return "log.d";
    case Op::kFloorD: return "floor.d";
    case Op::kCeilD: return "ceil.d";
    case Op::kRoundD: return "round.d";
    case Op::kSinD: return "sin.d";
    case Op::kCosD: return "cos.d";
    case Op::kTanD: return "tan.d";
    case Op::kAddI: return "add.i";
    case Op::kSubI: return "sub.i";
    case Op::kMulI: return "mul.i";
    case Op::kDivI: return "div.i";
    case Op::kMinI: return "min.i";
    case Op::kMaxI: return "max.i";
    case Op::kModI: return "mod.i";
    case Op::kRemI: return "rem.i";
    case Op::kNegI: return "neg.i";
    case Op::kAbsI: return "abs.i";
    case Op::kSignI: return "sign.i";
    case Op::kAndBitsI: return "and.i";
    case Op::kOrBitsI: return "or.i";
    case Op::kXorBitsI: return "xor.i";
    case Op::kShlI: return "shl.i";
    case Op::kShrI: return "shr.i";
    case Op::kNotL: return "not.l";
    case Op::kLtD: return "lt.d";
    case Op::kLeD: return "le.d";
    case Op::kGtD: return "gt.d";
    case Op::kGeD: return "ge.d";
    case Op::kEqD: return "eq.d";
    case Op::kNeD: return "ne.d";
    case Op::kLtI: return "lt.i";
    case Op::kLeI: return "le.i";
    case Op::kGtI: return "gt.i";
    case Op::kGeI: return "ge.i";
    case Op::kEqI: return "eq.i";
    case Op::kNeI: return "ne.i";
    case Op::kBrLtD: return "br.lt.d";
    case Op::kBrLeD: return "br.le.d";
    case Op::kBrGtD: return "br.gt.d";
    case Op::kBrGeD: return "br.ge.d";
    case Op::kBrEqD: return "br.eq.d";
    case Op::kBrNeD: return "br.ne.d";
    case Op::kBrLtI: return "br.lt.i";
    case Op::kBrLeI: return "br.le.i";
    case Op::kBrGtI: return "br.gt.i";
    case Op::kBrGeI: return "br.ge.i";
    case Op::kBrEqI: return "br.eq.i";
    case Op::kBrNeI: return "br.ne.i";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfZero: return "jz";
    case Op::kJmpIfNotZero: return "jnz";
    case Op::kLoadInD: return "ldin.d";
    case Op::kLoadInI: return "ldin.i";
    case Op::kStoreOutD: return "stout.d";
    case Op::kStoreOutI: return "stout.i";
    case Op::kLoadStateD: return "ldst.d";
    case Op::kLoadStateI: return "ldst.i";
    case Op::kStoreStateD: return "stst.d";
    case Op::kStoreStateI: return "stst.i";
    case Op::kCov: return "cov";
    case Op::kEdge: return "edge";
    case Op::kMcdcEval: return "mcdc";
    case Op::kCovIf: return "cov.if";
    case Op::kCovCond: return "cov.cond";
  }
  return "?";
}

OperandEffect EffectOf(Op op) {
  // Shorthands: reads/writes per register file.
  auto fx = [](std::uint8_t read_d, std::uint8_t read_i, std::uint8_t write_d,
               std::uint8_t write_i, bool jumps = false) {
    return OperandEffect{read_d, read_i, write_d, write_i, jumps};
  };
  constexpr std::uint8_t kAB = kFieldA | kFieldB;
  switch (op) {
    case Op::kHalt: return fx(0, 0, 0, 0);
    case Op::kLoadConstD: return fx(0, 0, kFieldDst, 0);
    case Op::kLoadConstI: return fx(0, 0, 0, kFieldDst);
    case Op::kMovD: return fx(kFieldA, 0, kFieldDst, 0);
    case Op::kMovI: return fx(0, kFieldA, 0, kFieldDst);
    case Op::kCvtDToI: return fx(kFieldA, 0, 0, kFieldDst);
    case Op::kCvtIToD: return fx(0, kFieldA, kFieldDst, 0);
    case Op::kWrapI: return fx(0, kFieldA, 0, kFieldDst);
    case Op::kBoolD: return fx(kFieldA, 0, 0, kFieldDst);
    case Op::kBoolI: return fx(0, kFieldA, 0, kFieldDst);
    case Op::kAddD:
    case Op::kSubD:
    case Op::kMulD:
    case Op::kDivD:
    case Op::kMinD:
    case Op::kMaxD:
    case Op::kModD:
    case Op::kRemD:
    case Op::kPowD:
    case Op::kAtan2D: return fx(kAB, 0, kFieldDst, 0);
    case Op::kNegD:
    case Op::kAbsD:
    case Op::kSignD:
    case Op::kSqrtD:
    case Op::kExpD:
    case Op::kLogD:
    case Op::kFloorD:
    case Op::kCeilD:
    case Op::kRoundD:
    case Op::kSinD:
    case Op::kCosD:
    case Op::kTanD: return fx(kFieldA, 0, kFieldDst, 0);
    case Op::kAddI:
    case Op::kSubI:
    case Op::kMulI:
    case Op::kDivI:
    case Op::kMinI:
    case Op::kMaxI:
    case Op::kModI:
    case Op::kRemI:
    case Op::kAndBitsI:
    case Op::kOrBitsI:
    case Op::kXorBitsI:
    case Op::kShlI:
    case Op::kShrI: return fx(0, kAB, 0, kFieldDst);
    case Op::kNegI:
    case Op::kAbsI:
    case Op::kSignI:
    case Op::kNotL: return fx(0, kFieldA, 0, kFieldDst);
    case Op::kLtD:
    case Op::kLeD:
    case Op::kGtD:
    case Op::kGeD:
    case Op::kEqD:
    case Op::kNeD: return fx(kAB, 0, 0, kFieldDst);
    case Op::kLtI:
    case Op::kLeI:
    case Op::kGtI:
    case Op::kGeI:
    case Op::kEqI:
    case Op::kNeI: return fx(0, kAB, 0, kFieldDst);
    case Op::kBrLtD:
    case Op::kBrLeD:
    case Op::kBrGtD:
    case Op::kBrGeD:
    case Op::kBrEqD:
    case Op::kBrNeD: return fx(kAB, 0, 0, kFieldDst, true);
    case Op::kBrLtI:
    case Op::kBrLeI:
    case Op::kBrGtI:
    case Op::kBrGeI:
    case Op::kBrEqI:
    case Op::kBrNeI: return fx(0, kAB, 0, kFieldDst, true);
    case Op::kJmp: return fx(0, 0, 0, 0, true);
    case Op::kJmpIfZero:
    case Op::kJmpIfNotZero: return fx(0, kFieldA, 0, 0, true);
    case Op::kLoadInD: return fx(0, 0, kFieldDst, 0);
    case Op::kLoadInI: return fx(0, 0, 0, kFieldDst);
    case Op::kStoreOutD: return fx(kFieldA, 0, 0, 0);
    case Op::kStoreOutI: return fx(0, kFieldA, 0, 0);
    case Op::kLoadStateD: return fx(0, 0, kFieldDst, 0);
    case Op::kLoadStateI: return fx(0, 0, 0, kFieldDst);
    case Op::kStoreStateD: return fx(kFieldA, 0, 0, 0);
    case Op::kStoreStateI: return fx(0, kFieldA, 0, 0);
    case Op::kCov:
    case Op::kEdge: return fx(0, 0, 0, 0);
    case Op::kMcdcEval: return fx(0, kAB | kFieldAux, 0, 0);
    case Op::kCovIf: return fx(0, kFieldA, 0, 0);
    case Op::kCovCond: return fx(0, kAB | kFieldDst, 0, kFieldDst | kFieldB);
  }
  return {};
}

Op FusedBranchOf(Op op) {
  switch (op) {
    case Op::kLtD: return Op::kBrLtD;
    case Op::kLeD: return Op::kBrLeD;
    case Op::kGtD: return Op::kBrGtD;
    case Op::kGeD: return Op::kBrGeD;
    case Op::kEqD: return Op::kBrEqD;
    case Op::kNeD: return Op::kBrNeD;
    case Op::kLtI: return Op::kBrLtI;
    case Op::kLeI: return Op::kBrLeI;
    case Op::kGtI: return Op::kBrGtI;
    case Op::kGeI: return Op::kBrGeI;
    case Op::kEqI: return Op::kBrEqI;
    case Op::kNeI: return Op::kBrNeI;
    default: return Op::kHalt;
  }
}

std::string Disassemble(const Program& program) {
  std::string out;
  out += StrFormat("; dregs=%d iregs=%d state_d=%zu state_i=%zu inputs=%zu outputs=%zu edges=%d\n",
                   program.num_dregs, program.num_iregs, program.state_d.size(),
                   program.state_i.size(), program.input_types.size(),
                   program.output_types.size(), program.num_edges);
  for (const auto& c : program.const_d) {
    out += StrFormat("; const d%d = %s\n", c.reg, DoubleToString(c.value).c_str());
  }
  for (const auto& c : program.const_i) {
    out += StrFormat("; const i%d = %lld\n", c.reg, static_cast<long long>(c.value));
  }
  const auto operand = [](const MarginOperand& o) {
    return StrFormat("%c%d", o.is_float ? 'd' : 'i', o.reg);
  };
  std::size_t site = 0;
  for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
    for (; site < program.margins.size() &&
           static_cast<std::size_t>(program.margins[site].pc) == pc;
         ++site) {
      const MarginSite& m = program.margins[site];
      const bool diff = m.kind == MarginSite::Kind::kDiff;
      out += StrFormat("      ; margin decision=%d ge=%d lt=%d %s%s - %s%s\n", m.decision,
                       m.ge_outcome, m.lt_outcome, diff ? "" : "-|",
                       operand(m.lhs).c_str(), operand(m.rhs).c_str(), diff ? "" : "|");
    }
    const Insn& in = program.code[pc];
    out += StrFormat("%4zu  %-8s dst=%d a=%d b=%d imm=%d aux=%d dimm=%s type=%s\n", pc,
                     std::string(OpName(in.op)).c_str(), in.dst, in.a, in.b, in.imm, in.aux,
                     DoubleToString(in.dimm).c_str(), std::string(ir::DTypeName(in.type)).c_str());
  }
  return out;
}

}  // namespace cftcg::vm
