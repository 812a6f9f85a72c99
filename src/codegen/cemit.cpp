#include "codegen/cemit.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <vector>

#include "support/numerics.hpp"
#include "support/strings.hpp"

namespace cftcg::codegen {

using ir::DType;
using vm::Insn;
using vm::Op;

namespace {

// Everything the step function needs besides the program: the C type names
// of ir::DTypeCName, the coverage runtime of Figure 4, and the VM's
// per-opcode helpers, one for one with src/vm/machine.cpp and
// support/numerics.hpp. Static inline, so a model that uses few of them
// compiles without unused-function warnings.
constexpr std::string_view kPrelude = R"(#include <math.h>
#include <stdint.h>
#include <string.h>

typedef uint8_t boolean_T;
typedef int8_t int8_T;
typedef uint8_t uint8_T;
typedef int16_t int16_T;
typedef uint16_t uint16_T;
typedef int32_t int32_T;
typedef uint32_t uint32_T;
typedef float real32_T;
typedef double real_T;

/* Coverage runtime provided by the fuzzer (Figure 4's instrumentation
 * interface). */
extern void CoverageStatistics(int branchId);
extern void McdcRecord(int decisionId, uint32_t values, uint32_t mask, int outcome);

/* The VM's operation semantics. Single-precision signals compute in double;
 * integer signals live in int64_t, wrapped to their declared width. */
enum DType { kBool, kInt8, kUInt8, kInt16, kUInt16, kInt32, kUInt32, kSingle, kDouble };

static inline int64_t WrapToDType(int64_t v, enum DType t) {
  switch (t) {
    case kBool: return v != 0;
    case kInt8: return (int8_t)v;
    case kUInt8: return (uint8_t)v;
    case kInt16: return (int16_t)v;
    case kUInt16: return (uint16_t)v;
    case kInt32: return (int32_t)v;
    case kUInt32: return (uint32_t)v;
    default: return v;
  }
}
static inline int64_t WrapAdd(int64_t a, int64_t b) { return (int64_t)((uint64_t)a + (uint64_t)b); }
static inline int64_t WrapSub(int64_t a, int64_t b) { return (int64_t)((uint64_t)a - (uint64_t)b); }
static inline int64_t WrapMul(int64_t a, int64_t b) { return (int64_t)((uint64_t)a * (uint64_t)b); }
static inline int64_t TruncToI64(double v) {
  if (!isfinite(v)) return 0;
  if (v >= 9.2233720368547758e18) return INT64_MAX;
  if (v <= -9.2233720368547758e18) return INT64_MIN;
  return (int64_t)v;
}
static inline double SafeDiv(double a, double b) {
  const double r = a / b;
  return isfinite(r) ? r : 0.0;
}
static inline double SafeMod(double a, double b) {
  double r;
  if (b == 0.0) return 0.0;
  r = fmod(a, b);
  return (r != 0.0 && ((r < 0.0) != (b < 0.0))) ? r + b : r;
}
static inline double SafeRem(double a, double b) { return b == 0.0 ? 0.0 : fmod(a, b); }
/* min.d and max.d: a tie returns a, a NaN operand the other one (the native
 * code's minsd/maxsd; libm's fmin returns b on a tie). */
static inline double MinD(double a, double b) {
  return isnan(a) ? b : isnan(b) ? a : b < a ? b : a;
}
static inline double MaxD(double a, double b) {
  return isnan(a) ? b : isnan(b) ? a : b > a ? b : a;
}
static inline double Finite(double v) { return isfinite(v) ? v : 0.0; }
static inline double SafeSqrt(double v) { return v < 0.0 ? 0.0 : sqrt(v); }
static inline double SafeLog(double v) { return v <= 0.0 ? 0.0 : log(v); }
static inline int64_t SafeDivI(int64_t a, int64_t b) {
  if (b == 0) return 0;
  if (b == -1) return WrapSub(0, a);
  return a / b;
}
static inline int64_t SafeModI(int64_t a, int64_t b) {
  int64_t r;
  if (b == 0 || b == -1) return 0;
  r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}
static inline int64_t SafeRemI(int64_t a, int64_t b) { return b == 0 || b == -1 ? 0 : a % b; }
)";

/// The prelude's name of each DType, in ir::DType order.
constexpr std::string_view kTypeTags[ir::kNumDTypes] = {
    "kBool", "kInt8", "kUInt8", "kInt16", "kUInt16", "kInt32", "kUInt32", "kSingle", "kDouble"};

std::string_view TypeTag(DType t) { return kTypeTags[static_cast<std::size_t>(t)]; }
std::string CType(DType t) { return std::string(ir::DTypeCName(t)); }

std::string Sanitize(std::string_view name) {
  std::string out;
  for (char c : name) out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) out = "b" + out;
  return out;
}

/// True for a name a port variable must not take: a C keyword, a name the
/// prelude, the step body or the driver declares or calls, or a register or
/// state-slot name (d<N>, i<N>, sd<N>, si<N>).
bool IsReserved(const std::string& name) {
  static const std::set<std::string, std::less<>> kNames = {
      "auto", "break", "case", "char", "const", "continue", "default", "do", "double", "else",
      "enum", "extern", "float", "for", "goto", "if", "inline", "int", "long", "register",
      "restrict", "return", "short", "signed", "sizeof", "static", "struct", "switch", "typedef",
      "union", "unsigned", "void", "volatile", "while",
      "boolean_T", "int8_T", "uint8_T", "int16_T", "uint16_T", "int32_T", "uint32_T",
      "real32_T", "real_T", "int8_t", "uint8_t", "int16_t", "uint16_t", "int32_t", "uint32_t",
      "int64_t", "uint64_t", "size_t", "INT64_MAX", "INT64_MIN", "INFINITY", "NAN",
      "CoverageStatistics", "McdcRecord", "DType", "kBool", "kInt8", "kUInt8", "kInt16",
      "kUInt16", "kInt32", "kUInt32", "kSingle", "kDouble", "WrapToDType", "WrapAdd", "WrapSub",
      "WrapMul", "TruncToI64", "SafeDiv", "SafeMod", "SafeRem", "Finite", "SafeSqrt", "SafeLog",
      "SafeDivI", "SafeModI", "SafeRemI", "MinD", "MaxD", "isfinite", "isnan", "fmod", "pow",
      "atan2", "fabs", "sqrt", "exp", "log", "floor", "ceil", "nearbyint", "sin", "cos", "tan",
      "memcpy",
      "data", "size", "dataLen", "i", "tuple"};
  if (kNames.count(name) != 0) return true;
  for (std::string_view prefix : {"sd", "si", "d", "i"}) {
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        std::all_of(name.begin() + static_cast<std::ptrdiff_t>(prefix.size()), name.end(),
                    [](char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; })) {
      return true;
    }
  }
  return false;
}

/// C variable names for ports: sanitized, then a '_' appended until the
/// name is neither reserved nor `taken` (which it joins).
std::vector<std::string> VariableNames(const std::vector<std::string>& names,
                                       std::set<std::string>& taken) {
  std::vector<std::string> out;
  for (const std::string& n : names) {
    std::string v = Sanitize(n);
    while (IsReserved(v) || !taken.insert(v).second) v += '_';
    out.push_back(std::move(v));
  }
  return out;
}

/// Text safe inside a C block comment.
std::string Comment(std::string text) {
  for (std::size_t at = text.find("*/"); at != std::string::npos; at = text.find("*/", at)) {
    text.replace(at, 2, "* /");
  }
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

/// The exact C literal of a double: hex-float, or INFINITY/NAN with a sign.
std::string DoubleLiteral(double v) {
  const char* sign = std::signbit(v) ? "-" : "";
  if (std::isnan(v)) return std::string(sign) + "NAN";
  if (std::isinf(v)) return std::string(sign) + "INFINITY";
  return StrFormat("%a", v);
}

std::string IntLiteral(std::int64_t v) {
  if (v == INT64_MIN) return "INT64_MIN";
  return StrFormat("%lld", static_cast<long long>(v));
}

std::string D(int r) { return StrFormat("d%d", r); }
std::string I(int r) { return StrFormat("i%d", r); }

class Printer {
 public:
  Printer(const vm::Program& p, std::string_view model_name)
      : p_(p), model_(Sanitize(model_name)) {}

  Result<std::string> Run() {
    if (p_.input_names.size() != p_.input_types.size() ||
        p_.output_names.size() != p_.output_types.size()) {
      return Status::Error("the program's port names do not match its port types");
    }
    std::set<std::string> taken = {model_ + "_init", model_ + "_step", model_ + "_decode"};
    ins_ = VariableNames(p_.input_names, taken);
    outs_ = VariableNames(p_.output_names, taken);
    std::string body;
    if (Status s = PrintBody(body); !s.ok()) return s;

    std::string out = StrFormat(
        "/* Generated by CFTCG fuzzing code generation.\n"
        " * Model: %s\n"
        " * Printed from the instrumented program: %zu instructions, %d double and %d\n"
        " * integer registers, %zu state slots. */\n",
        model_.c_str(), p_.code.size(), p_.num_dregs, p_.num_iregs,
        p_.state_d.size() + p_.state_i.size());
    out += kPrelude;
    out += "\n/* === Model state === */\n";
    for (std::size_t k = 0; k < p_.state_d.size(); ++k) {
      out += StrFormat("static double sd%zu; /* %s */\n", k, Comment(p_.state_d[k].name).c_str());
    }
    for (std::size_t k = 0; k < p_.state_i.size(); ++k) {
      out += StrFormat("static int64_t si%zu; /* %s */\n", k, Comment(p_.state_i[k].name).c_str());
    }
    out += "\n/* === Model initialization (run before every test case) === */\n";
    out += "void " + model_ + "_init(void) {\n";
    for (std::size_t k = 0; k < p_.state_d.size(); ++k) {
      out += StrFormat("  sd%zu = %s;\n", k, DoubleLiteral(p_.state_d[k].init).c_str());
    }
    for (std::size_t k = 0; k < p_.state_i.size(); ++k) {
      const vm::StateSlot& s = p_.state_i[k];
      out += StrFormat("  si%zu = %s;\n", k,
                       IntLiteral(ir::WrapToDType(num::TruncToI64(s.init), s.type)).c_str());
    }
    out += "}\n";
    out += "\n/* === Model step function with model-level branch instrumentation === */\n";
    std::vector<std::string> params;
    for (std::size_t k = 0; k < ins_.size(); ++k) {
      params.push_back(CType(p_.input_types[k]) + " " + ins_[k]);
    }
    for (std::size_t k = 0; k < outs_.size(); ++k) {
      params.push_back(CType(p_.output_types[k]) + "* " + outs_[k]);
    }
    out += "void " + model_ + "_step(" + (params.empty() ? "void" : JoinStrings(params, ", ")) +
           ") {\n";
    out += Registers();
    out += body;
    out += "}\n";
    PrintDriver(out);
    return out;
  }

 private:
  /// The register declarations: pooled constants as const locals, every
  /// other register zeroed, and a (void) use of each one no instruction
  /// reads. Locals do not keep their values across steps as the VM's
  /// register file does; the lowering writes every register before it
  /// reads it within a step, so that is never observable.
  std::string Registers() const {
    std::vector<bool> pooled_d(static_cast<std::size_t>(p_.num_dregs), false);
    std::vector<bool> pooled_i(static_cast<std::size_t>(p_.num_iregs), false);
    std::vector<bool> read_d = pooled_d;
    std::vector<bool> read_i = pooled_i;
    for (const Insn& in : p_.code) {
      const vm::OperandEffect fx = vm::EffectOf(in.op);
      vm::ForEachReg(in, fx.read_d, [&](int r) { read_d[static_cast<std::size_t>(r)] = true; });
      vm::ForEachReg(in, fx.read_i, [&](int r) { read_i[static_cast<std::size_t>(r)] = true; });
    }
    std::string out;
    for (const auto& c : p_.const_d) {
      pooled_d[static_cast<std::size_t>(c.reg)] = true;
      out += StrFormat("  const double d%d = %s;\n", c.reg, DoubleLiteral(c.value).c_str());
    }
    for (const auto& c : p_.const_i) {
      pooled_i[static_cast<std::size_t>(c.reg)] = true;
      out += StrFormat("  const int64_t i%d = %s;\n", c.reg, IntLiteral(c.value).c_str());
    }
    // Eight registers a line.
    const auto lines = [&](const std::vector<std::string>& items, const std::string& lead,
                           std::string_view sep) {
      for (std::size_t k = 0; k < items.size(); k += 8) {
        const auto from = items.begin() + static_cast<std::ptrdiff_t>(k);
        const std::vector<std::string> line(
            from, from + static_cast<std::ptrdiff_t>(std::min<std::size_t>(8, items.size() - k)));
        out += "  " + lead + JoinStrings(line, sep) + ";\n";
      }
    };
    std::vector<std::string> zeroed_d, zeroed_i, unread;
    for (int r = 0; r < p_.num_dregs; ++r) {
      if (!pooled_d[static_cast<std::size_t>(r)]) zeroed_d.push_back(D(r) + " = 0");
      if (!read_d[static_cast<std::size_t>(r)]) unread.push_back("(void)" + D(r));
    }
    for (int r = 0; r < p_.num_iregs; ++r) {
      if (!pooled_i[static_cast<std::size_t>(r)]) zeroed_i.push_back(I(r) + " = 0");
      if (!read_i[static_cast<std::size_t>(r)]) unread.push_back("(void)" + I(r));
    }
    lines(zeroed_d, "double ", ", ");
    lines(zeroed_i, "int64_t ", ", ");
    lines(unread, "", "; ");
    return out;
  }

  /// One statement per instruction, a label before every jump target, and
  /// a block-path comment wherever the emitting block changes.
  Status PrintBody(std::string& out) const {
    const std::size_t n = p_.code.size();
    std::vector<bool> target(n, false);
    for (std::size_t pc = 0; pc < n; ++pc) {
      const Insn& in = p_.code[pc];
      const vm::OperandEffect fx = vm::EffectOf(in.op);
      bool in_range = true;
      vm::ForEachReg(in, fx.read_d | fx.write_d, [&](int r) { in_range &= r < p_.num_dregs; });
      vm::ForEachReg(in, fx.read_i | fx.write_i, [&](int r) { in_range &= r < p_.num_iregs; });
      if (fx.jumps) {
        in_range &= in.imm >= 0 && static_cast<std::size_t>(in.imm) < n;
        if (in_range) target[static_cast<std::size_t>(in.imm)] = true;
      }
      if (!in_range) {
        return Status::Error(StrFormat("pc %zu: register or jump target out of range", pc));
      }
    }
    std::int32_t block = -1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      const std::int32_t b = pc < p_.insn_block.size() ? p_.insn_block[pc] : -1;
      if (b >= 0 && b != block && static_cast<std::size_t>(b) < p_.block_names.size()) {
        out += "  /* " + Comment(p_.block_names[static_cast<std::size_t>(b)]) + " */\n";
      }
      block = b;
      if (target[pc]) out += StrFormat("L%zu:\n", pc);
      const Insn& in = p_.code[pc];
      const std::string stmt = Statement(in);
      if (stmt.empty()) {
        return Status::Error(StrFormat(
            "pc %zu: %s", pc,
            in.op == Op::kEdge
                ? "an edge probe has no C form (compiled C gets edge feedback from the "
                  "compiler's own instrumentation)"
                : "slot index out of range"));
      }
      out += "  " + stmt + "\n";
    }
    return Status::Ok();
  }

  /// The C statement of one instruction, or "" when it has none.
  std::string Statement(const Insn& in) const {
    const std::string dd = D(in.dst), da = D(in.a), db = D(in.b);
    const std::string id = I(in.dst), ia = I(in.a), ib = I(in.b);
    const std::string go = StrFormat("goto L%d;", in.imm);
    const auto setd = [&](const std::string& e) { return dd + " = " + e + ";"; };
    const auto seti = [&](const std::string& e) { return id + " = " + e + ";"; };
    const auto wrap = [&](const std::string& e) {
      return seti("WrapToDType(" + e + ", " + std::string(TypeTag(in.type)) + ")");
    };
    const auto call = [](std::string_view f, const std::string& x, const std::string& y = "") {
      return std::string(f) + "(" + x + (y.empty() ? "" : ", " + y) + ")";
    };
    const auto branch = [&](const std::string& x, std::string_view cmp, const std::string& y) {
      return "if (!(" + id + " = " + x + " " + std::string(cmp) + " " + y + ")) " + go;
    };
    const auto slot = [&](std::size_t count) {
      return in.imm >= 0 && static_cast<std::size_t>(in.imm) < count;
    };
    const auto k = static_cast<std::size_t>(in.imm);
    switch (in.op) {
      case Op::kHalt: return "return;";
      case Op::kLoadConstD: return setd(DoubleLiteral(in.dimm));
      case Op::kLoadConstI:
        return seti(IntLiteral(ir::WrapToDType(num::TruncToI64(in.dimm), in.type)));
      case Op::kMovD: return setd(da);
      case Op::kMovI: return seti(ia);
      case Op::kCvtDToI: return wrap(call("TruncToI64", da));
      case Op::kCvtIToD: return setd("(double)" + ia);
      case Op::kWrapI: return wrap(ia);
      case Op::kBoolD: return seti(da + " != 0.0");
      case Op::kBoolI: return seti(ia + " != 0");
      case Op::kAddD: return setd(da + " + " + db);
      case Op::kSubD: return setd(da + " - " + db);
      case Op::kMulD: return setd(da + " * " + db);
      case Op::kDivD: return setd(call("SafeDiv", da, db));
      case Op::kMinD: return setd(call("MinD", da, db));
      case Op::kMaxD: return setd(call("MaxD", da, db));
      case Op::kModD: return setd(call("SafeMod", da, db));
      case Op::kRemD: return setd(call("SafeRem", da, db));
      case Op::kPowD: return setd(call("Finite", call("pow", da, db)));
      case Op::kAtan2D: return setd(call("atan2", da, db));
      case Op::kNegD: return setd("-" + da);
      case Op::kAbsD: return setd(call("fabs", da));
      case Op::kSignD: return setd(da + " > 0.0 ? 1.0 : (" + da + " < 0.0 ? -1.0 : 0.0)");
      case Op::kSqrtD: return setd(call("SafeSqrt", da));
      case Op::kExpD: return setd(call("Finite", call("exp", da)));
      case Op::kLogD: return setd(call("SafeLog", da));
      case Op::kFloorD: return setd(call("floor", da));
      case Op::kCeilD: return setd(call("ceil", da));
      case Op::kRoundD: return setd(call("nearbyint", da));
      case Op::kSinD: return setd(call("sin", da));
      case Op::kCosD: return setd(call("cos", da));
      case Op::kTanD: return setd(call("Finite", call("tan", da)));
      case Op::kAddI: return wrap(call("WrapAdd", ia, ib));
      case Op::kSubI: return wrap(call("WrapSub", ia, ib));
      case Op::kMulI: return wrap(call("WrapMul", ia, ib));
      case Op::kDivI: return wrap(call("SafeDivI", ia, ib));
      case Op::kMinI: return seti(ia + " < " + ib + " ? " + ia + " : " + ib);
      case Op::kMaxI: return seti(ia + " > " + ib + " ? " + ia + " : " + ib);
      case Op::kModI: return wrap(call("SafeModI", ia, ib));
      case Op::kRemI: return wrap(call("SafeRemI", ia, ib));
      case Op::kNegI: return wrap(call("WrapSub", "0", ia));
      case Op::kAbsI: return wrap(ia + " < 0 ? WrapSub(0, " + ia + ") : " + ia);
      case Op::kSignI: return seti(ia + " > 0 ? 1 : (" + ia + " < 0 ? -1 : 0)");
      case Op::kAndBitsI: return wrap(ia + " & " + ib);
      case Op::kOrBitsI: return wrap(ia + " | " + ib);
      case Op::kXorBitsI: return wrap(ia + " ^ " + ib);
      case Op::kShlI: return wrap("(int64_t)((uint64_t)" + ia + " << (" + ib + " & 63))");
      case Op::kShrI: return wrap(ia + " >> (" + ib + " & 63)");
      case Op::kNotL: return seti(ia + " == 0");
      case Op::kLtD: return seti(da + " < " + db);
      case Op::kLeD: return seti(da + " <= " + db);
      case Op::kGtD: return seti(da + " > " + db);
      case Op::kGeD: return seti(da + " >= " + db);
      case Op::kEqD: return seti(da + " == " + db);
      case Op::kNeD: return seti(da + " != " + db);
      case Op::kLtI: return seti(ia + " < " + ib);
      case Op::kLeI: return seti(ia + " <= " + ib);
      case Op::kGtI: return seti(ia + " > " + ib);
      case Op::kGeI: return seti(ia + " >= " + ib);
      case Op::kEqI: return seti(ia + " == " + ib);
      case Op::kNeI: return seti(ia + " != " + ib);
      case Op::kBrLtD: return branch(da, "<", db);
      case Op::kBrLeD: return branch(da, "<=", db);
      case Op::kBrGtD: return branch(da, ">", db);
      case Op::kBrGeD: return branch(da, ">=", db);
      case Op::kBrEqD: return branch(da, "==", db);
      case Op::kBrNeD: return branch(da, "!=", db);
      case Op::kBrLtI: return branch(ia, "<", ib);
      case Op::kBrLeI: return branch(ia, "<=", ib);
      case Op::kBrGtI: return branch(ia, ">", ib);
      case Op::kBrGeI: return branch(ia, ">=", ib);
      case Op::kBrEqI: return branch(ia, "==", ib);
      case Op::kBrNeI: return branch(ia, "!=", ib);
      case Op::kJmp: return go;
      case Op::kJmpIfZero: return "if (" + ia + " == 0) " + go;
      case Op::kJmpIfNotZero: return "if (" + ia + " != 0) " + go;
      case Op::kLoadInD: return slot(ins_.size()) ? setd(ins_[k]) : "";
      case Op::kLoadInI: return slot(ins_.size()) ? seti(ins_[k]) : "";
      case Op::kStoreOutD: return slot(outs_.size()) ? "*" + outs_[k] + " = " + da + ";" : "";
      case Op::kStoreOutI:
        if (!slot(outs_.size())) return "";
        // As ir::Value::Int reads an output: wrapped to the port's type.
        return p_.output_types[k] == DType::kBool
                   ? "*" + outs_[k] + " = " + ia + " != 0;"
                   : "*" + outs_[k] + " = (" + CType(p_.output_types[k]) + ")" + ia + ";";
      case Op::kLoadStateD: return slot(p_.state_d.size()) ? setd(StrFormat("sd%zu", k)) : "";
      case Op::kLoadStateI: return slot(p_.state_i.size()) ? seti(StrFormat("si%zu", k)) : "";
      case Op::kStoreStateD:
        return slot(p_.state_d.size()) ? StrFormat("sd%zu = ", k) + da + ";" : "";
      case Op::kStoreStateI:
        return slot(p_.state_i.size()) ? StrFormat("si%zu = ", k) + ia + ";" : "";
      case Op::kCov: return StrFormat("CoverageStatistics(%d);", in.imm);
      case Op::kEdge: return "";
      case Op::kMcdcEval:
        return StrFormat("McdcRecord(%d, (uint32_t)%s, (uint32_t)%s, (int)%s);", in.imm,
                         ia.c_str(), ib.c_str(), I(in.aux).c_str());
      case Op::kCovIf:
        return StrFormat("CoverageStatistics(%s != 0 ? %d : %d);", ia.c_str(), in.imm, in.aux);
      case Op::kCovCond: {
        // The condition's value first: the mask or values register may be
        // the condition's own.
        const std::string bit = IntLiteral(num::TruncToI64(in.dimm));
        std::string s = "{ const int v = " + ia + " != 0; ";
        if (in.b >= 0) s += ib + " |= " + bit + "; ";
        s += "if (v) " + id + " |= " + bit + "; ";
        return s + StrFormat("CoverageStatistics(v ? %d : %d); }", in.imm, in.aux);
      }
    }
    return "";
  }

  /// <model>_decode and the Figure 3 fuzz driver.
  void PrintDriver(std::string& out) const {
    std::size_t tuple = 0;
    for (DType t : p_.input_types) tuple += ir::DTypeSize(t);

    // One tuple's decode, shared by the driver and any other harness: the
    // same decode as ir::Value::FromBytes, so the printed program sees the
    // inputs the VM sees.
    out += "\n/* === Tuple decode: each field is memcpy'd from the tuple; a boolean\n";
    out += " * keeps its low bit and a non-finite single/double reads as 0. === */\n";
    std::vector<std::string> params = {"const uint8_t* tuple"};
    std::vector<std::string> decode_args = {"data + i * dataLen"};
    for (std::size_t k = 0; k < ins_.size(); ++k) {
      params.push_back(CType(p_.input_types[k]) + "* " + ins_[k]);
      decode_args.push_back("&" + ins_[k]);
    }
    out += "void " + model_ + "_decode(" + JoinStrings(params, ", ") + ") {\n";
    if (ins_.empty()) out += "  (void)tuple;\n";
    std::size_t offset = 0;
    for (std::size_t k = 0; k < ins_.size(); ++k) {
      const DType t = p_.input_types[k];
      const char* name = ins_[k].c_str();
      out += StrFormat("  memcpy(%s, tuple + %zu, %zu);\n", name, offset, ir::DTypeSize(t));
      if (t == DType::kBool) {
        out += StrFormat("  *%s &= 1;\n", name);
      } else if (ir::DTypeIsFloat(t)) {
        out += StrFormat("  if (!isfinite(*%s)) *%s = 0;\n", name, name);
      }
      offset += ir::DTypeSize(t);
    }
    out += "}\n";

    out += "\n/* === Fuzz driver (Figure 3): splits the fuzzer byte stream into\n";
    out += " * per-iteration tuples and feeds each tuple to the step function. === */\n";
    out += "int FuzzTestOneInput(const uint8_t* data, size_t size) {\n";
    out += StrFormat("  const size_t dataLen = %zu; /* bytes per model iteration */\n", tuple);
    out += "  size_t i = 0;\n";
    out += "  " + model_ + "_init();\n";
    out += "  while ((i + 1) * dataLen <= size) {\n";
    for (std::size_t k = 0; k < ins_.size(); ++k) {
      out += "    " + CType(p_.input_types[k]) + " " + ins_[k] + " = 0;\n";
    }
    out += "    " + model_ + "_decode(" + JoinStrings(decode_args, ", ") + ");\n";
    std::vector<std::string> args = ins_;
    for (std::size_t k = 0; k < outs_.size(); ++k) {
      out += "    " + CType(p_.output_types[k]) + " " + outs_[k] + " = 0;\n";
      args.push_back("&" + outs_[k]);
    }
    out += "    " + model_ + "_step(" + JoinStrings(args, ", ") + ");\n";
    out += "    ++i;\n";
    out += "  }\n";
    out += "  return 0;\n";
    out += "}\n";
  }

  const vm::Program& p_;
  std::string model_;
  std::vector<std::string> ins_;
  std::vector<std::string> outs_;
};

}  // namespace

Result<std::string> EmitC(const vm::Program& program, std::string_view model_name) {
  return Printer(program, model_name).Run();
}

}  // namespace cftcg::codegen
