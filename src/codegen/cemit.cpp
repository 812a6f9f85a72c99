#include "codegen/cemit.hpp"

#include <cassert>
#include <cctype>
#include <cmath>
#include <map>
#include <tuple>

#include "blocks/registry.hpp"
#include "support/strings.hpp"
#include "support/numerics.hpp"

namespace cftcg::codegen {

using blocks::mex::Expr;
using blocks::mex::ExprKind;
using blocks::mex::IfBranch;
using blocks::mex::Stmt;
using blocks::mex::StmtKind;
using ir::Block;
using ir::BlockKind;
using ir::DType;
using ir::Model;

namespace {

std::string Sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "b" + out;
  return out;
}

class CEmitter {
 public:
  CEmitter(const sched::ScheduledModel& sm, const CEmitOptions& opts) : sm_(sm), opts_(opts) {
    model_name_ = opts.model_name.empty() ? Sanitize(sm.root->name()) : Sanitize(opts.model_name);
  }

  Result<std::string> Run() {
    EmitPrelude();
    // Body is emitted into body_ first so state declarations (discovered
    // while walking) can be printed before the step function.
    if (Status s = EmitSystem(*sm_.root, ""); !s.ok()) return s;
    EmitStateUpdates(*sm_.root, body_);

    std::string out = header_;
    out += states_;
    out += "\n/* === Model initialization (run before every test case) === */\n";
    out += "void " + model_name_ + "_init(void) {\n";
    out += init_;
    out += "}\n";
    out += "\n/* === Model step function with model-level branch instrumentation === */\n";
    out += "void " + model_name_ + "_step(" + StepParams() + ") {\n";
    out += body_;
    out += outputs_;
    out += "}\n";
    EmitDriver(out);
    return out;
  }

 private:
  // ---- writers ---------------------------------------------------------
  void Line(std::string& dst, const std::string& text) {
    dst.append(static_cast<std::size_t>(indent_) * 2, ' ');
    dst += text;
    dst += '\n';
  }
  void B(const std::string& text) { Line(body_, text); }  // body line

  static std::string CType(DType t) { return std::string(ir::DTypeCName(t)); }

  std::string NewVar(const Model& sys, const Block& b, int port, DType t) {
    std::string name = StrFormat("v%d_%s", var_counter_++, Sanitize(b.name()).c_str());
    if (b.num_outputs() > 1) name += StrFormat("_y%d", port + 1);
    vars_[Key{&sys, b.id(), port}] = name;
    types_[Key{&sys, b.id(), port}] = t;
    return name;
  }
  std::string VarOf(const Model& sys, ir::BlockId b, int port) const {
    auto it = vars_.find(Key{&sys, b, port});
    assert(it != vars_.end());
    return it->second;
  }
  std::string InExpr(const Model& sys, const Block& b, int port) const {
    const ir::Wire* w = sys.DriverOf(b.id(), port);
    return VarOf(sys, w->src.block, w->src.port);
  }
  DType InType(const Model& sys, const Block& b, int port) const {
    const ir::Wire* w = sys.DriverOf(b.id(), port);
    return sys.block(w->src.block).out_type(w->src.port);
  }

  std::string Decl(const Model& sys, const Block& b, int port, DType t, const std::string& init) {
    const std::string v = NewVar(sys, b, port, t);
    return CType(t) + " " + v + " = " + init + ";";
  }

  /// Casts an expression string to the target type when needed.
  std::string Cast(const std::string& expr, DType from, DType to) const {
    if (from == to) return expr;
    return "(" + CType(to) + ")(" + expr + ")";
  }

  bool Instr() const { return opts_.model_instrumentation; }
  std::string Cov(int slot) const { return StrFormat("CoverageStatistics(%d);", slot); }

  // ---- file skeleton ------------------------------------------------------
  void EmitPrelude() {
    header_ +=
        "/* Generated by CFTCG fuzzing code generation.\n"
        " * Model: " + sm_.root->name() + "\n"
        " * Decisions: " + StrFormat("%zu", sm_.spec.decisions().size()) +
        ", conditions: " + StrFormat("%zu", sm_.spec.conditions().size()) +
        ", fuzz branch slots: " + StrFormat("%d", sm_.spec.FuzzBranchCount()) + "\n */\n"
        "#include <stdint.h>\n"
        "#include <string.h>\n"
        "#include <math.h>\n\n"
        "typedef uint8_t boolean_T;\n"
        "typedef int8_t int8_T;\n"
        "typedef uint8_t uint8_T;\n"
        "typedef int16_t int16_T;\n"
        "typedef uint16_t uint16_T;\n"
        "typedef int32_t int32_T;\n"
        "typedef uint32_t uint32_T;\n"
        "typedef float real32_T;\n"
        "typedef double real_T;\n\n"
        "/* Coverage runtime provided by the fuzzer (Figure 4's instrumentation\n"
        " * interface). */\n"
        "extern void CoverageStatistics(int branchId);\n"
        "extern void McdcRecord(int decisionId, uint32_t values, uint32_t mask, int outcome);\n\n"
        "static uint32_t g_mcdcVals, g_mcdcMask;\n"
        "static int CovLeaf(int v, int tSlot, int fSlot, uint32_t bit) {\n"
        "  if (v) { CoverageStatistics(tSlot); g_mcdcVals |= bit; }\n"
        "  else { CoverageStatistics(fSlot); }\n"
        "  g_mcdcMask |= bit;\n"
        "  return v;\n"
        "}\n"
        "static int McdcEval(int decisionId, int outcome) {\n"
        "  McdcRecord(decisionId, g_mcdcVals, g_mcdcMask, outcome);\n"
        "  return outcome;\n"
        "}\n\n";
    indent_ = 1;
  }

  std::string StepParams() const {
    std::vector<std::string> params;
    const Model& root = *sm_.root;
    for (ir::BlockId id : root.Inports()) {
      const Block& b = root.block(id);
      params.push_back(CType(b.out_type(0)) + " " + Sanitize(b.name()));
    }
    for (ir::BlockId id : root.Outports()) {
      const Block& b = root.block(id);
      const DType t = InType(root, b, 0);
      params.push_back(CType(t) + "* " + Sanitize(b.name()));
    }
    return params.empty() ? "void" : JoinStrings(params, ", ");
  }

  void AddState(const std::string& ctype, const std::string& name, const std::string& init) {
    states_ += "static " + ctype + " " + name + ";\n";
    init_ += "  " + name + " = " + init + ";\n";
  }

  // ---- systems ---------------------------------------------------------------
  Status EmitSystem(const Model& sys, const std::string& prefix) {
    for (ir::BlockId id : sm_.OrderOf(&sys)) {
      if (Status s = EmitBlock(sys, sys.block(id), prefix); !s.ok()) return s;
    }
    return Status::Ok();
  }

  void EmitStateUpdates(const Model& sys, std::string& dst) {
    for (ir::BlockId id : sm_.OrderOf(&sys)) {
      const Block& b = sys.block(id);
      switch (b.kind()) {
        case BlockKind::kUnitDelay:
        case BlockKind::kMemory:
          Line(dst, state_name_.at(&b) + " = " +
                        Cast(InExpr(sys, b, 0), InType(sys, b, 0), b.out_type(0)) + ";");
          break;
        case BlockKind::kDelay: {
          const int n = static_cast<int>(b.params().GetInt("length", 1));
          const std::string base = state_name_.at(&b);
          for (int i = n - 1; i >= 1; --i) {
            Line(dst, StrFormat("%s[%d] = %s[%d];", base.c_str(), i, base.c_str(), i - 1));
          }
          Line(dst, base + "[0] = " +
                        Cast(InExpr(sys, b, 0), InType(sys, b, 0), b.out_type(0)) + ";");
          break;
        }
        case BlockKind::kDiscreteIntegrator: {
          const std::string acc = state_name_.at(&b);
          Line(dst, StrFormat("%s += %s * (real_T)(%s);", acc.c_str(),
                              DoubleToString(b.params().GetDouble("gain", 1.0)).c_str(),
                              InExpr(sys, b, 0).c_str()));
          if (b.params().Has("upper") || b.params().Has("lower")) {
            const auto d = sm_.DecisionAt(&b, 0);
            const std::string lo = DoubleToString(b.params().GetDouble("lower", -1e30));
            const std::string hi = DoubleToString(b.params().GetDouble("upper", 1e30));
            Line(dst, StrFormat("if (%s < %s) {", acc.c_str(), lo.c_str()));
            if (Instr()) Line(dst, "  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
            Line(dst, StrFormat("  %s = %s;", acc.c_str(), lo.c_str()));
            Line(dst, StrFormat("} else if (%s > %s) {", acc.c_str(), hi.c_str()));
            if (Instr()) Line(dst, "  " + Cov(sm_.spec.OutcomeSlot(d, 2)));
            Line(dst, StrFormat("  %s = %s;", acc.c_str(), hi.c_str()));
            Line(dst, "} else {");
            if (Instr()) Line(dst, "  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
            Line(dst, "}");
          }
          break;
        }
        default: break;
      }
    }
  }

  // ---- blocks ------------------------------------------------------------------
  Status EmitBlock(const Model& sys, const Block& b, const std::string& prefix) {
    switch (b.kind()) {
      case BlockKind::kInport: {
        if (vars_.count(Key{&sys, b.id(), 0})) return Status::Ok();  // seeded by compound
        // Root inports are step() parameters.
        vars_[Key{&sys, b.id(), 0}] = Sanitize(b.name());
        types_[Key{&sys, b.id(), 0}] = b.out_type(0);
        return Status::Ok();
      }
      case BlockKind::kOutport: {
        if (&sys != sm_.root) return Status::Ok();
        Line(outputs_, "*" + Sanitize(b.name()) + " = " + InExpr(sys, b, 0) + ";");
        return Status::Ok();
      }
      case BlockKind::kConstant: {
        const DType t = b.out_type(0);
        const double v = b.params().GetDouble("value", 0.0);
        const std::string lit = ir::DTypeIsFloat(t)
                                    ? DoubleToString(v)
                                    : StrFormat("%lld", static_cast<long long>(num::TruncToI64(v)));
        B(Decl(sys, b, 0, t, lit));
        return Status::Ok();
      }
      case BlockKind::kGain:
        B(Decl(sys, b, 0, b.out_type(0),
               Cast(StrFormat("(real_T)(%s) * %s", InExpr(sys, b, 0).c_str(),
                              DoubleToString(b.params().GetDouble("gain", 1.0)).c_str()),
                    DType::kDouble, b.out_type(0))));
        return Status::Ok();
      case BlockKind::kBias:
        B(Decl(sys, b, 0, b.out_type(0),
               Cast(StrFormat("(real_T)(%s) + %s", InExpr(sys, b, 0).c_str(),
                              DoubleToString(b.params().GetDouble("bias", 0.0)).c_str()),
                    DType::kDouble, b.out_type(0))));
        return Status::Ok();
      case BlockKind::kSum: {
        const std::string signs = b.params().GetString("signs", "++");
        std::string expr;
        for (std::size_t i = 0; i < signs.size(); ++i) {
          if (i > 0 || signs[i] == '-') expr += signs[i];
          expr += "(" +
                  Cast(InExpr(sys, b, static_cast<int>(i)), InType(sys, b, static_cast<int>(i)),
                       b.out_type(0)) +
                  ")";
        }
        B(Decl(sys, b, 0, b.out_type(0), expr));
        return Status::Ok();
      }
      case BlockKind::kSubtract:
        return EmitBinop(sys, b, "-");
      case BlockKind::kProduct: {
        const std::string ops = b.params().GetString("ops", "**");
        std::string expr = "(real_T)(" + InExpr(sys, b, 0) + ")";
        if (ops[0] == '/') expr = "1.0 / " + expr;
        for (std::size_t i = 1; i < ops.size(); ++i) {
          expr += std::string(1, ops[i] == '/' ? '/' : '*') + "(real_T)(" +
                  InExpr(sys, b, static_cast<int>(i)) + ")";
        }
        B(Decl(sys, b, 0, b.out_type(0), Cast(expr, DType::kDouble, b.out_type(0))));
        return Status::Ok();
      }
      case BlockKind::kDivide:
        return EmitBinop(sys, b, "/");
      case BlockKind::kMod:
        B(Decl(sys, b, 0, b.out_type(0),
               Cast(StrFormat("fmod((real_T)(%s), (real_T)(%s))", InExpr(sys, b, 0).c_str(),
                              InExpr(sys, b, 1).c_str()),
                    DType::kDouble, b.out_type(0))));
        return Status::Ok();
      case BlockKind::kRem:
        B(Decl(sys, b, 0, b.out_type(0),
               Cast(StrFormat("fmod((real_T)(%s), (real_T)(%s))", InExpr(sys, b, 0).c_str(),
                              InExpr(sys, b, 1).c_str()),
                    DType::kDouble, b.out_type(0))));
        return Status::Ok();
      case BlockKind::kMin:
      case BlockKind::kMax:
        return EmitMinMax(sys, b);
      case BlockKind::kAbs:
        return EmitAbs(sys, b);
      case BlockKind::kUnaryMinus:
        B(Decl(sys, b, 0, b.out_type(0),
               "-" + Cast(InExpr(sys, b, 0), InType(sys, b, 0), b.out_type(0))));
        return Status::Ok();
      case BlockKind::kSign:
        return EmitSign(sys, b);
      case BlockKind::kSqrt: return EmitUnaryFn(sys, b, "sqrt");
      case BlockKind::kExp: return EmitUnaryFn(sys, b, "exp");
      case BlockKind::kLog: return EmitUnaryFn(sys, b, "log");
      case BlockKind::kSin: return EmitUnaryFn(sys, b, "sin");
      case BlockKind::kCos: return EmitUnaryFn(sys, b, "cos");
      case BlockKind::kTan: return EmitUnaryFn(sys, b, "tan");
      case BlockKind::kFloor: return EmitUnaryFn(sys, b, "floor");
      case BlockKind::kCeil: return EmitUnaryFn(sys, b, "ceil");
      case BlockKind::kRound: return EmitUnaryFn(sys, b, "nearbyint");
      case BlockKind::kAtan2:
        B(Decl(sys, b, 0, DType::kDouble,
               StrFormat("atan2((real_T)(%s), (real_T)(%s))", InExpr(sys, b, 0).c_str(),
                         InExpr(sys, b, 1).c_str())));
        return Status::Ok();
      case BlockKind::kPow:
        B(Decl(sys, b, 0, DType::kDouble,
               StrFormat("pow((real_T)(%s), (real_T)(%s))", InExpr(sys, b, 0).c_str(),
                         InExpr(sys, b, 1).c_str())));
        return Status::Ok();
      case BlockKind::kQuantizer: {
        const std::string q = DoubleToString(b.params().GetDouble("interval", 1.0));
        B(Decl(sys, b, 0, b.out_type(0),
               Cast(StrFormat("%s * nearbyint((real_T)(%s) / %s)", q.c_str(),
                              InExpr(sys, b, 0).c_str(), q.c_str()),
                    DType::kDouble, b.out_type(0))));
        return Status::Ok();
      }
      case BlockKind::kSaturation: return EmitSaturation(sys, b);
      case BlockKind::kDeadZone: return EmitDeadZone(sys, b);
      case BlockKind::kRateLimiter: return EmitRateLimiter(sys, b, prefix);
      case BlockKind::kRelay: return EmitRelay(sys, b, prefix);
      case BlockKind::kRelationalOp:
      case BlockKind::kCompareToConstant:
      case BlockKind::kCompareToZero: return EmitRelational(sys, b);
      case BlockKind::kLogicalAnd:
      case BlockKind::kLogicalOr:
      case BlockKind::kLogicalXor:
      case BlockKind::kLogicalNand:
      case BlockKind::kLogicalNor: return EmitLogical(sys, b);
      case BlockKind::kLogicalNot:
        B(Decl(sys, b, 0, DType::kBool, "!(" + InExpr(sys, b, 0) + ")"));
        return Status::Ok();
      case BlockKind::kBitwiseAnd: return EmitBinop(sys, b, "&");
      case BlockKind::kBitwiseOr: return EmitBinop(sys, b, "|");
      case BlockKind::kBitwiseXor: return EmitBinop(sys, b, "^");
      case BlockKind::kShiftLeft:
        B(Decl(sys, b, 0, b.out_type(0),
               StrFormat("(%s) << %lld", InExpr(sys, b, 0).c_str(),
                         static_cast<long long>(b.params().GetInt("bits", 1)))));
        return Status::Ok();
      case BlockKind::kShiftRight:
        B(Decl(sys, b, 0, b.out_type(0),
               StrFormat("(%s) >> %lld", InExpr(sys, b, 0).c_str(),
                         static_cast<long long>(b.params().GetInt("bits", 1)))));
        return Status::Ok();
      case BlockKind::kSwitch: return EmitSwitch(sys, b);
      case BlockKind::kMultiportSwitch: return EmitMultiportSwitch(sys, b);
      case BlockKind::kMerge: return EmitMerge(sys, b);
      case BlockKind::kUnitDelay:
      case BlockKind::kMemory: {
        const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
        state_name_[&b] = sname;
        AddState(CType(b.out_type(0)), sname,
                 ir::DTypeIsFloat(b.out_type(0))
                     ? DoubleToString(b.params().GetDouble("init", 0.0))
                     : StrFormat("%lld", static_cast<long long>(
                           num::TruncToI64(b.params().GetDouble("init", 0.0)))));
        B(Decl(sys, b, 0, b.out_type(0), sname));
        return Status::Ok();
      }
      case BlockKind::kDelay: {
        const int n = static_cast<int>(b.params().GetInt("length", 1));
        const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
        state_name_[&b] = sname;
        states_ += "static " + CType(b.out_type(0)) + " " + sname + StrFormat("[%d];\n", n);
        init_ += StrFormat("  for (int i = 0; i < %d; ++i) %s[i] = %s;\n", n, sname.c_str(),
                           DoubleToString(b.params().GetDouble("init", 0.0)).c_str());
        B(Decl(sys, b, 0, b.out_type(0), StrFormat("%s[%d]", sname.c_str(), n - 1)));
        return Status::Ok();
      }
      case BlockKind::kDiscreteIntegrator: {
        const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
        state_name_[&b] = sname;
        AddState("real_T", sname, DoubleToString(b.params().GetDouble("init", 0.0)));
        B(Decl(sys, b, 0, DType::kDouble, sname));
        return Status::Ok();
      }
      case BlockKind::kCounterLimited: return EmitCounter(sys, b);
      case BlockKind::kEdgeDetector: return EmitEdgeDetector(sys, b);
      case BlockKind::kLookup1D: return EmitLookup(sys, b);
      case BlockKind::kDataTypeConversion:
        B(Decl(sys, b, 0, b.out_type(0),
               Cast(InExpr(sys, b, 0), InType(sys, b, 0), b.out_type(0))));
        return Status::Ok();
      case BlockKind::kSubsystem: return EmitSubsystem(sys, b, prefix);
      case BlockKind::kActionIf: return EmitActionIf(sys, b, prefix);
      case BlockKind::kActionSwitch: return EmitActionSwitch(sys, b, prefix);
      case BlockKind::kEnabledSubsystem: return EmitEnabled(sys, b, prefix);
      case BlockKind::kChart: return EmitChart(sys, b, prefix);
      case BlockKind::kExprFunc: return EmitExprFunc(sys, b);
    }
    return Status::Error("unhandled block kind in C emission");
  }

  Status EmitBinop(const Model& sys, const Block& b, const std::string& op) {
    const DType t = b.out_type(0);
    if (ir::DTypeIsFloat(t) && (op == "-" || op == "/")) {
      B(Decl(sys, b, 0, t,
             Cast(StrFormat("(real_T)(%s) %s (real_T)(%s)", InExpr(sys, b, 0).c_str(), op.c_str(),
                            InExpr(sys, b, 1).c_str()),
                  DType::kDouble, t)));
    } else {
      B(Decl(sys, b, 0, t,
             "(" + CType(t) + ")((" + Cast(InExpr(sys, b, 0), InType(sys, b, 0), t) + ") " + op +
                 " (" + Cast(InExpr(sys, b, 1), InType(sys, b, 1), t) + "))"));
    }
    return Status::Ok();
  }

  Status EmitUnaryFn(const Model& sys, const Block& b, const std::string& fn) {
    B(Decl(sys, b, 0, b.out_type(0),
           Cast(fn + "((real_T)(" + InExpr(sys, b, 0) + "))", DType::kDouble, b.out_type(0))));
    return Status::Ok();
  }

  Status EmitMinMax(const Model& sys, const Block& b) {
    const bool is_min = b.kind() == BlockKind::kMin;
    const DType t = b.out_type(0);
    const std::string a = Cast(InExpr(sys, b, 0), InType(sys, b, 0), t);
    const std::string c = Cast(InExpr(sys, b, 1), InType(sys, b, 1), t);
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, t, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if ((%s) %s (%s)) {", a.c_str(), is_min ? "<=" : ">=", c.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = %s;", v.c_str(), a.c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = %s;", v.c_str(), c.c_str()));
    B("}");
    return Status::Ok();
  }

  Status EmitAbs(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const std::string u = InExpr(sys, b, 0);
    if (ir::DTypeIsFloat(t)) {
      B(Decl(sys, b, 0, t, "fabs((real_T)(" + u + "))"));
      return Status::Ok();
    }
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, t, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if ((%s) < 0) {", u.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = (%s)(-(%s));", v.c_str(), CType(t).c_str(), u.c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = (%s)(%s);", v.c_str(), CType(t).c_str(), u.c_str()));
    B("}");
    return Status::Ok();
  }

  Status EmitSign(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const std::string u = InExpr(sys, b, 0);
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, t, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if ((%s) > 0) {", u.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = 1;", v.c_str()));
    B(StrFormat("} else if ((%s) < 0) {", u.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = (%s)-1;", v.c_str(), CType(t).c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 2)));
    B(StrFormat("  %s = 0;", v.c_str()));
    B("}");
    return Status::Ok();
  }

  Status EmitSaturation(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const std::string u = Cast(InExpr(sys, b, 0), InType(sys, b, 0), t);
    // Integer bounds past the type clamp to its range, as in the VM: the
    // literal is then a value of the type and compares exactly.
    const auto limit = [&](const char* name, double fallback) {
      const double v = b.params().GetDouble(name, fallback);
      if (ir::DTypeIsFloat(t)) return DoubleToString(v);
      return StrFormat("%lld",
                       static_cast<long long>(ir::ClampToDType(num::TruncToI64(v), t)));
    };
    const std::string lo = limit("lower", 0.0);
    const std::string hi = limit("upper", 1.0);
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, t, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if ((%s) < %s) {", u.c_str(), lo.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = %s;", v.c_str(), lo.c_str()));
    B(StrFormat("} else if ((%s) > %s) {", u.c_str(), hi.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 2)));
    B(StrFormat("  %s = %s;", v.c_str(), hi.c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = %s;", v.c_str(), u.c_str()));
    B("}");
    return Status::Ok();
  }

  Status EmitDeadZone(const Model& sys, const Block& b) {
    const std::string u = "(real_T)(" + InExpr(sys, b, 0) + ")";
    const std::string s0 = DoubleToString(b.params().GetDouble("start", -0.5));
    const std::string s1 = DoubleToString(b.params().GetDouble("end", 0.5));
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, b.out_type(0), "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if (%s < %s) {", u.c_str(), s0.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = %s;", v.c_str(),
                Cast(u + " - " + s0, DType::kDouble, b.out_type(0)).c_str()));
    B(StrFormat("} else if (%s > %s) {", u.c_str(), s1.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 2)));
    B(StrFormat("  %s = %s;", v.c_str(),
                Cast(u + " - " + s1, DType::kDouble, b.out_type(0)).c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = 0;", v.c_str()));
    B("}");
    return Status::Ok();
  }

  Status EmitRateLimiter(const Model& sys, const Block& b, const std::string&) {
    const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
    state_name_[&b] = sname;
    AddState("real_T", sname, DoubleToString(b.params().GetDouble("init", 0.0)));
    const std::string u = "(real_T)(" + InExpr(sys, b, 0) + ")";
    const std::string rise = DoubleToString(b.params().GetDouble("rising", 1.0));
    const std::string fall = DoubleToString(b.params().GetDouble("falling", -1.0));
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, DType::kDouble, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if (%s - %s > %s) {", u.c_str(), sname.c_str(), rise.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = %s + %s;", v.c_str(), sname.c_str(), rise.c_str()));
    B(StrFormat("} else if (%s - %s < %s) {", u.c_str(), sname.c_str(), fall.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 2)));
    B(StrFormat("  %s = %s + %s;", v.c_str(), sname.c_str(), fall.c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = %s;", v.c_str(), u.c_str()));
    B("}");
    B(sname + " = " + v + ";");
    return Status::Ok();
  }

  Status EmitRelay(const Model& sys, const Block& b, const std::string&) {
    const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
    state_name_[&b] = sname;
    AddState("boolean_T", sname, b.params().GetDouble("init", 0.0) != 0.0 ? "1" : "0");
    const std::string u = "(real_T)(" + InExpr(sys, b, 0) + ")";
    const auto d = sm_.DecisionAt(&b, 0);
    B(StrFormat("if (%s) { if (%s <= %s) %s = 0; } else { if (%s >= %s) %s = 1; }",
                sname.c_str(), u.c_str(),
                DoubleToString(b.params().GetDouble("off_point", 0.0)).c_str(), sname.c_str(),
                u.c_str(), DoubleToString(b.params().GetDouble("on_point", 1.0)).c_str(),
                sname.c_str()));
    B(Decl(sys, b, 0, DType::kDouble, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if (%s) {", sname.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = %s;", v.c_str(),
                DoubleToString(b.params().GetDouble("on_value", 1.0)).c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = %s;", v.c_str(),
                DoubleToString(b.params().GetDouble("off_value", 0.0)).c_str()));
    B("}");
    return Status::Ok();
  }

  std::string RelOpC(const std::string& op) const {
    if (op == "lt") return "<";
    if (op == "le") return "<=";
    if (op == "gt") return ">";
    if (op == "ge") return ">=";
    if (op == "eq") return "==";
    return "!=";
  }

  Status EmitRelational(const Model& sys, const Block& b) {
    const std::string op = RelOpC(b.params().GetString("op", "lt"));
    std::string lhs = InExpr(sys, b, 0);
    std::string rhs;
    if (b.kind() == BlockKind::kRelationalOp) {
      rhs = InExpr(sys, b, 1);
    } else if (b.kind() == BlockKind::kCompareToConstant) {
      rhs = DoubleToString(b.params().GetDouble("value", 0.0));
    } else {
      rhs = "0";
    }
    B(Decl(sys, b, 0, DType::kBool,
           StrFormat("(%s) %s (%s)", lhs.c_str(), op.c_str(), rhs.c_str())));
    if (Instr()) {
      const auto c = sm_.ConditionAt(&b, 0);
      const std::string v = VarOf(sys, b.id(), 0);
      B(StrFormat("if (%s) { %s } else { %s }", v.c_str(),
                  Cov(sm_.spec.ConditionTrueSlot(c)).c_str(),
                  Cov(sm_.spec.ConditionFalseSlot(c)).c_str()));
    }
    return Status::Ok();
  }

  Status EmitLogical(const Model& sys, const Block& b) {
    const int n = b.num_inputs();
    const auto d = Instr() ? sm_.DecisionAt(&b, 0) : -1;
    // Mode (a): if/else checks on every input (Figure 4.(a)).
    std::vector<std::string> ins;
    for (int i = 0; i < n; ++i) {
      const std::string bi = StrFormat("(%s) != 0", InExpr(sys, b, i).c_str());
      ins.push_back("(" + bi + ")");
      if (Instr()) {
        const auto c = sm_.ConditionAt(&b, i + 1);
        B(StrFormat("if (%s) { %s g_mcdcVals |= %uu; } else { %s }", bi.c_str(),
                    Cov(sm_.spec.ConditionTrueSlot(c)).c_str(), 1U << i,
                    Cov(sm_.spec.ConditionFalseSlot(c)).c_str()));
      }
    }
    std::string joiner = " && ";
    bool invert = false;
    switch (b.kind()) {
      case BlockKind::kLogicalOr: joiner = " || "; break;
      case BlockKind::kLogicalXor: joiner = " ^ "; break;
      case BlockKind::kLogicalNand: invert = true; break;
      case BlockKind::kLogicalNor: joiner = " || "; invert = true; break;
      default: break;
    }
    std::string expr = JoinStrings(ins, joiner);
    if (invert) expr = "!(" + expr + ")";
    if (Instr()) B(StrFormat("g_mcdcMask = %uu;", (1U << n) - 1));
    B(Decl(sys, b, 0, DType::kBool, expr));
    if (Instr()) {
      const std::string v = VarOf(sys, b.id(), 0);
      B(StrFormat("McdcRecord(%d, g_mcdcVals, g_mcdcMask, %s); g_mcdcVals = 0;", d, v.c_str()));
      B(StrFormat("if (%s) { %s } else { %s }", v.c_str(),
                  Cov(sm_.spec.OutcomeSlot(d, 0)).c_str(),
                  Cov(sm_.spec.OutcomeSlot(d, 1)).c_str()));
    }
    return Status::Ok();
  }

  Status EmitSwitch(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const std::string ctrl = InExpr(sys, b, 1);
    const std::string criteria = b.params().GetString("criteria", "ge");
    std::string cond;
    if (criteria == "ne") {
      cond = "(" + ctrl + ") != 0";
    } else {
      cond = StrFormat("(%s) %s %s", ctrl.c_str(), criteria == "gt" ? ">" : ">=",
                       DoubleToString(b.params().GetDouble("threshold", 0.0)).c_str());
    }
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, t, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if (%s) {", cond.c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("  %s = %s;", v.c_str(), Cast(InExpr(sys, b, 0), InType(sys, b, 0), t).c_str()));
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("  %s = %s;", v.c_str(), Cast(InExpr(sys, b, 2), InType(sys, b, 2), t).c_str()));
    B("}");
    return Status::Ok();
  }

  Status EmitMultiportSwitch(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const int cases = static_cast<int>(b.params().GetInt("cases", 2));
    const auto d = sm_.DecisionAt(&b, 0);
    B(Decl(sys, b, 0, t, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("switch ((int32_T)(%s)) {", InExpr(sys, b, 0).c_str()));
    for (int i = 0; i < cases - 1; ++i) {
      B(StrFormat("  case %d:", i + 1));
      if (Instr()) B("    " + Cov(sm_.spec.OutcomeSlot(d, i)));
      B(StrFormat("    %s = %s;", v.c_str(),
                  Cast(InExpr(sys, b, 1 + i), InType(sys, b, 1 + i), t).c_str()));
      B("    break;");
    }
    B("  default:");
    if (Instr()) B("    " + Cov(sm_.spec.OutcomeSlot(d, cases - 1)));
    B(StrFormat("    %s = %s;", v.c_str(),
                Cast(InExpr(sys, b, cases), InType(sys, b, cases), t).c_str()));
    B("    break;");
    B("}");
    return Status::Ok();
  }

  Status EmitMerge(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const int n = b.num_inputs();
    B(Decl(sys, b, 0, t, Cast(InExpr(sys, b, n - 1), InType(sys, b, n - 1), t)));
    const std::string v = VarOf(sys, b.id(), 0);
    for (int i = n - 2; i >= 0; --i) {
      B(StrFormat("if ((%s) != 0) %s = %s;", InExpr(sys, b, i).c_str(), v.c_str(),
                  Cast(InExpr(sys, b, i), InType(sys, b, i), t).c_str()));
    }
    return Status::Ok();
  }

  Status EmitCounter(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
    state_name_[&b] = sname;
    AddState(CType(t), sname,
             StrFormat("%lld", static_cast<long long>(
                                   num::TruncToI64(b.params().GetDouble("init", 0.0)))));
    const auto d = sm_.DecisionAt(&b, 0);
    const long long limit = static_cast<long long>(b.params().GetInt("limit", 10));
    B(StrFormat("if ((%s) != 0) {", InExpr(sys, b, 0).c_str()));
    B(StrFormat("  if (%s >= %lld) {", sname.c_str(), limit));
    if (Instr()) B("    " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    B(StrFormat("    %s = 0;", sname.c_str()));
    B("  } else {");
    if (Instr()) B("    " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B(StrFormat("    %s = (%s)(%s + 1);", sname.c_str(), CType(t).c_str(), sname.c_str()));
    B("  }");
    B("}");
    B(Decl(sys, b, 0, t, sname));
    return Status::Ok();
  }

  Status EmitEdgeDetector(const Model& sys, const Block& b) {
    const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
    state_name_[&b] = sname;
    AddState("boolean_T", sname, "0");
    const std::string edge = b.params().GetString("edge", "rising");
    const std::string u = StrFormat("((%s) != 0)", InExpr(sys, b, 0).c_str());
    std::string expr;
    if (edge == "falling") expr = "(!" + u + " && " + sname + ")";
    else if (edge == "either") expr = "(" + u + " != " + sname + ")";
    else expr = "(" + u + " && !" + sname + ")";
    B(Decl(sys, b, 0, DType::kBool, expr));
    const std::string v = VarOf(sys, b.id(), 0);
    B(sname + " = " + u + ";");
    if (Instr()) {
      const auto d = sm_.DecisionAt(&b, 0);
      const auto c = sm_.ConditionAt(&b, 1);
      B(StrFormat("if (%s) { %s %s } else { %s %s }", v.c_str(),
                  Cov(sm_.spec.OutcomeSlot(d, 0)).c_str(),
                  Cov(sm_.spec.ConditionTrueSlot(c)).c_str(),
                  Cov(sm_.spec.OutcomeSlot(d, 1)).c_str(),
                  Cov(sm_.spec.ConditionFalseSlot(c)).c_str()));
    }
    return Status::Ok();
  }

  Status EmitLookup(const Model& sys, const Block& b) {
    const auto bp = b.params().GetList("breakpoints");
    const auto tb = b.params().GetList("table");
    const std::string u = "(real_T)(" + InExpr(sys, b, 0) + ")";
    B(Decl(sys, b, 0, DType::kDouble, "0"));
    const std::string v = VarOf(sys, b.id(), 0);
    B(StrFormat("if (%s <= %s) %s = %s;", u.c_str(), DoubleToString(bp.front()).c_str(),
                v.c_str(), DoubleToString(tb.front()).c_str()));
    for (std::size_t i = 1; i < bp.size(); ++i) {
      const double slope = (bp[i] == bp[i - 1]) ? 0.0 : (tb[i] - tb[i - 1]) / (bp[i] - bp[i - 1]);
      B(StrFormat("else if (%s <= %s) %s = %s + (%s - %s) * %s;", u.c_str(),
                  DoubleToString(bp[i]).c_str(), v.c_str(), DoubleToString(tb[i - 1]).c_str(),
                  u.c_str(), DoubleToString(bp[i - 1]).c_str(), DoubleToString(slope).c_str()));
    }
    B(StrFormat("else %s = %s;", v.c_str(), DoubleToString(tb.back()).c_str()));
    return Status::Ok();
  }

  // -- compounds -------------------------------------------------------------
  void SeedSub(const Model& sys, const Block& b, const Model& sub, int offset) {
    const auto inports = sub.Inports();
    for (std::size_t i = 0; i < inports.size(); ++i) {
      vars_[Key{&sub, inports[i], 0}] = InExpr(sys, b, offset + static_cast<int>(i));
      types_[Key{&sub, inports[i], 0}] = sub.block(inports[i]).out_type(0);
    }
  }

  void StoreSubOutputs(const Model& sub, const Model& sys, const Block& b) {
    const auto outports = sub.Outports();
    for (std::size_t i = 0; i < outports.size(); ++i) {
      const ir::Wire* w = sub.DriverOf(outports[i], 0);
      const DType st = sub.block(w->src.block).out_type(w->src.port);
      B(StrFormat("  %s = %s;", VarOf(sys, b.id(), static_cast<int>(i)).c_str(),
                  Cast(VarOf(sub, w->src.block, w->src.port), st,
                       b.out_type(static_cast<int>(i)))
                      .c_str()));
    }
  }

  void DeclCompoundOutputs(const Model& sys, const Block& b) {
    for (int i = 0; i < b.num_outputs(); ++i) {
      B(Decl(sys, b, i, b.out_type(i), "0"));
    }
  }

  Status EmitSubsystem(const Model& sys, const Block& b, const std::string& prefix) {
    const Model& sub = *b.subs()[0];
    SeedSub(sys, b, sub, 0);
    DeclCompoundOutputs(sys, b);
    B("{ /* subsystem " + b.name() + " */");
    if (Status s = EmitSystem(sub, prefix + b.name() + "/"); !s.ok()) return s;
    EmitStateUpdates(sub, body_);
    StoreSubOutputs(sub, sys, b);
    B("}");
    return Status::Ok();
  }

  Status EmitActionIf(const Model& sys, const Block& b, const std::string& prefix) {
    const auto d = sm_.DecisionAt(&b, 0);
    DeclCompoundOutputs(sys, b);
    B(StrFormat("if ((%s) != 0) {", InExpr(sys, b, 0).c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    {
      const Model& sub = *b.subs()[0];
      SeedSub(sys, b, sub, 1);
      if (Status s = EmitSystem(sub, prefix + b.name() + ".then/"); !s.ok()) return s;
      EmitStateUpdates(sub, body_);
      StoreSubOutputs(sub, sys, b);
    }
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    {
      const Model& sub = *b.subs()[1];
      SeedSub(sys, b, sub, 1);
      if (Status s = EmitSystem(sub, prefix + b.name() + ".else/"); !s.ok()) return s;
      EmitStateUpdates(sub, body_);
      StoreSubOutputs(sub, sys, b);
    }
    B("}");
    return Status::Ok();
  }

  Status EmitActionSwitch(const Model& sys, const Block& b, const std::string& prefix) {
    const auto d = sm_.DecisionAt(&b, 0);
    const int n_subs = static_cast<int>(b.subs().size());
    DeclCompoundOutputs(sys, b);
    B(StrFormat("switch ((int32_T)(%s)) {", InExpr(sys, b, 0).c_str()));
    for (int i = 0; i < n_subs - 1; ++i) {
      B(StrFormat("  case %d: {", i + 1));
      if (Instr()) B("    " + Cov(sm_.spec.OutcomeSlot(d, i)));
      const Model& sub = *b.subs()[static_cast<std::size_t>(i)];
      SeedSub(sys, b, sub, 1);
      if (Status s = EmitSystem(sub, prefix + b.name() + StrFormat(".case%d/", i)); !s.ok()) {
        return s;
      }
      EmitStateUpdates(sub, body_);
      StoreSubOutputs(sub, sys, b);
      B("    break;");
      B("  }");
    }
    B("  default: {");
    if (Instr()) B("    " + Cov(sm_.spec.OutcomeSlot(d, n_subs - 1)));
    const Model& sub = *b.subs().back();
    SeedSub(sys, b, sub, 1);
    if (Status s = EmitSystem(sub, prefix + b.name() + ".default/"); !s.ok()) return s;
    EmitStateUpdates(sub, body_);
    StoreSubOutputs(sub, sys, b);
    B("    break;");
    B("  }");
    B("}");
    return Status::Ok();
  }

  Status EmitEnabled(const Model& sys, const Block& b, const std::string& prefix) {
    const auto d = sm_.DecisionAt(&b, 0);
    const Model& sub = *b.subs()[0];
    const double init = b.params().GetDouble("init", 0.0);
    std::vector<std::string> snames;
    for (int i = 0; i < b.num_outputs(); ++i) {
      const std::string sname =
          StrFormat("s_%s_y%d_%d", Sanitize(b.name()).c_str(), i, var_counter_++);
      snames.push_back(sname);
      AddState(CType(b.out_type(i)), sname, DoubleToString(init));
    }
    B(StrFormat("if ((%s) != 0) {", InExpr(sys, b, 0).c_str()));
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 0)));
    SeedSub(sys, b, sub, 1);
    if (Status s = EmitSystem(sub, prefix + b.name() + "/"); !s.ok()) return s;
    EmitStateUpdates(sub, body_);
    {
      const auto outports = sub.Outports();
      for (std::size_t i = 0; i < outports.size(); ++i) {
        const ir::Wire* w = sub.DriverOf(outports[i], 0);
        const DType st = sub.block(w->src.block).out_type(w->src.port);
        B(StrFormat("  %s = %s;", snames[i].c_str(),
                    Cast(VarOf(sub, w->src.block, w->src.port), st, b.out_type(static_cast<int>(i)))
                        .c_str()));
      }
    }
    B("} else {");
    if (Instr()) B("  " + Cov(sm_.spec.OutcomeSlot(d, 1)));
    B("}");
    for (int i = 0; i < b.num_outputs(); ++i) {
      B(Decl(sys, b, i, b.out_type(i), snames[static_cast<std::size_t>(i)]));
    }
    return Status::Ok();
  }

  // -- mex ---------------------------------------------------------------------
  /// Emits a mex expression as C (variables resolved via `env`). Boolean
  /// decision contexts go through EmitMexCond for instrumentation.
  std::string MexExpr(const Expr& e, const std::map<std::string, std::string>& env) const {
    switch (e.kind) {
      case ExprKind::kNumber: return DoubleToString(e.number);
      case ExprKind::kVar: return env.at(e.name);
      case ExprKind::kUnary:
        return "(" + e.op + MexExpr(*e.args[0], env) + ")";
      case ExprKind::kBinary: {
        std::string op = e.op;
        if (op == "%") {
          return "fmod(" + MexExpr(*e.args[0], env) + ", " + MexExpr(*e.args[1], env) + ")";
        }
        return "(" + MexExpr(*e.args[0], env) + " " + op + " " + MexExpr(*e.args[1], env) + ")";
      }
      case ExprKind::kCall: {
        std::string name = e.name;
        if (name == "abs") name = "fabs";
        else if (name == "min") name = "fmin";
        else if (name == "max") name = "fmax";
        else if (name == "mod" || name == "rem") name = "fmod";
        else if (name == "round") name = "nearbyint";
        else if (name == "sign") {
          const std::string a = MexExpr(*e.args[0], env);
          return "((" + a + ") > 0 ? 1.0 : ((" + a + ") < 0 ? -1.0 : 0.0))";
        }
        std::vector<std::string> args;
        args.reserve(e.args.size());
        for (const auto& a : e.args) args.push_back(MexExpr(*a, env));
        return name + "(" + JoinStrings(args, ", ") + ")";
      }
    }
    return "0";
  }

  /// Boolean decision context with CovLeaf instrumentation.
  std::string MexCond(const Expr& e, const std::map<std::string, std::string>& env,
                      const std::map<const Expr*, int>& bit_of) const {
    if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
      return "(" + MexCond(*e.args[0], env, bit_of) + " " + e.op + " " +
             MexCond(*e.args[1], env, bit_of) + ")";
    }
    if (e.kind == ExprKind::kUnary && e.op == "!") {
      return "(!" + MexCond(*e.args[0], env, bit_of) + ")";
    }
    const std::string raw = "((" + MexExpr(e, env) + ") != 0)";
    if (!Instr()) return raw;
    auto it = bit_of.find(&e);
    if (it == bit_of.end() || it->second >= 24) return raw;
    const auto c = sm_.ConditionAt(&e, 0);
    return StrFormat("CovLeaf(%s, %d, %d, %uu)", raw.c_str(), sm_.spec.ConditionTrueSlot(c),
                     sm_.spec.ConditionFalseSlot(c), 1U << it->second);
  }

  std::string MexDecision(const Expr& cond, const std::map<std::string, std::string>& env,
                          coverage::DecisionId d) const {
    std::map<const Expr*, int> bit_of;
    std::vector<const Expr*> leaves;
    blocks::mex::CollectConditionLeaves(cond, leaves);
    for (std::size_t i = 0; i < leaves.size(); ++i) bit_of[leaves[i]] = static_cast<int>(i);
    std::string inner = MexCond(cond, env, bit_of);
    if (!Instr()) return inner;
    return StrFormat("(g_mcdcVals = 0, g_mcdcMask = 0, McdcEval(%d, %s))", d, inner.c_str());
  }

  void EmitMexStmts(const std::vector<blocks::mex::StmtPtr>& stmts,
                    const std::map<std::string, std::string>& env) {
    for (const auto& s : stmts) EmitMexStmt(*s, env);
  }

  void EmitMexStmt(const Stmt& stmt, const std::map<std::string, std::string>& env) {
    if (stmt.kind == StmtKind::kAssign) {
      B(env.at(stmt.target) + " = " + MexExpr(*stmt.value, env) + ";");
      return;
    }
    EmitIfChain(stmt, 0, env);
  }

  /// Nested if/else emission so every arm's false outcome is recorded —
  /// Figure 4.(d): "completing all conditional branches, including implicit
  /// else branches".
  void EmitIfChain(const Stmt& stmt, std::size_t arm,
                   const std::map<std::string, std::string>& env) {
    if (arm >= stmt.branches.size()) return;
    const IfBranch& br = stmt.branches[arm];
    if (!br.cond) {  // trailing else
      EmitMexStmts(br.body, env);
      return;
    }
    const auto d = Instr() ? sm_.DecisionAt(&stmt, static_cast<int>(arm)) : -1;
    B("if (" + MexDecision(*br.cond, env, d) + ") {");
    indent_ += 1;
    if (Instr()) B(Cov(sm_.spec.OutcomeSlot(d, 0)));
    EmitMexStmts(br.body, env);
    indent_ -= 1;
    B("} else {");
    indent_ += 1;
    if (Instr()) B(Cov(sm_.spec.OutcomeSlot(d, 1)));
    EmitIfChain(stmt, arm + 1, env);
    indent_ -= 1;
    B("}");
  }

  Status EmitExprFunc(const Model& sys, const Block& b) {
    const auto* compiled = sm_.analysis.programs.FindExprFunc(&b);
    assert(compiled != nullptr);
    // Names carry a global counter, so no scope block is needed: everything
    // stays at function level and the outputs remain visible downstream.
    std::map<std::string, std::string> env;
    B("/* MATLAB-function block " + b.name() + " */");
    for (std::size_t i = 0; i < compiled->in_names.size(); ++i) {
      const std::string v = StrFormat("m%d_%s", var_counter_++, compiled->in_names[i].c_str());
      env[compiled->in_names[i]] = v;
      B(StrFormat("real_T %s = (real_T)(%s);", v.c_str(),
                  InExpr(sys, b, static_cast<int>(i)).c_str()));
    }
    for (const auto& name : compiled->out_names) {
      const std::string v = StrFormat("m%d_%s", var_counter_++, name.c_str());
      env[name] = v;
      B("real_T " + v + " = 0;");
    }
    for (const auto& name : compiled->local_names) {
      const std::string v = StrFormat("m%d_%s", var_counter_++, name.c_str());
      env[name] = v;
      B("real_T " + v + " = 0;");
    }
    EmitMexStmts(compiled->program.stmts, env);
    for (std::size_t i = 0; i < compiled->out_names.size(); ++i) {
      vars_[Key{&sys, b.id(), static_cast<int>(i)}] =
          Cast(env[compiled->out_names[i]], DType::kDouble, b.out_type(static_cast<int>(i)));
      types_[Key{&sys, b.id(), static_cast<int>(i)}] = b.out_type(static_cast<int>(i));
    }
    return Status::Ok();
  }

  Status EmitChart(const Model& sys, const Block& b, const std::string&) {
    const auto* compiled = sm_.analysis.programs.FindChart(&b);
    assert(compiled != nullptr);
    const ir::ChartDef& def = *b.chart();
    const std::string sname = StrFormat("s_%s_%d", Sanitize(b.name()).c_str(), var_counter_++);
    AddState("int32_T", sname, StrFormat("%d", def.initial_state));
    std::map<std::string, std::string> env;
    for (std::size_t i = 0; i < def.inputs.size(); ++i) {
      const std::string v = StrFormat("c%d_%s", var_counter_++, def.inputs[i].c_str());
      env[def.inputs[i]] = v;
      B(StrFormat("real_T %s = (real_T)(%s);", v.c_str(),
                  InExpr(sys, b, static_cast<int>(i)).c_str()));
    }
    for (const auto& var : def.vars) {
      const std::string v = StrFormat("s_%s_%s_%d", Sanitize(b.name()).c_str(), var.name.c_str(),
                                      var_counter_++);
      env[var.name] = v;
      AddState("real_T", v, DoubleToString(var.init));
    }
    for (const auto& o : def.outputs) {
      const std::string v = StrFormat("s_%s_%s_%d", Sanitize(b.name()).c_str(), o.name.c_str(),
                                      var_counter_++);
      env[o.name] = v;
      AddState("real_T", v, DoubleToString(o.init));
    }
    B(StrFormat("switch (%s) { /* chart %s */", sname.c_str(), b.name().c_str()));
    indent_ += 1;
    for (std::size_t k = 0; k < def.states.size(); ++k) {
      B(StrFormat("case %zu: { /* state %s */", k, def.states[k].name.c_str()));
      indent_ += 1;
      std::size_t guards_open = 0;
      for (int t : compiled->outgoing[k]) {
        const auto& ct = compiled->transitions[static_cast<std::size_t>(t)];
        const ir::ChartTransition& dt = def.transitions[static_cast<std::size_t>(t)];
        const auto d = sm_.DecisionAt(&b, 1000 + t);
        std::string cond = ct.guard ? MexDecision(*ct.guard->expr, env, d) : "1";
        B("if (" + cond + ") {");
        indent_ += 1;
        if (Instr()) B(Cov(sm_.spec.OutcomeSlot(d, 0)));
        if (compiled->states[k].exit) EmitMexStmts(compiled->states[k].exit->stmts, env);
        if (ct.action) EmitMexStmts(ct.action->stmts, env);
        const auto dest = static_cast<std::size_t>(dt.to);
        if (compiled->states[dest].entry) EmitMexStmts(compiled->states[dest].entry->stmts, env);
        B(StrFormat("%s = %d;", sname.c_str(), dt.to));
        indent_ -= 1;
        B("} else {");
        indent_ += 1;
        if (Instr()) B(Cov(sm_.spec.OutcomeSlot(d, 1)));
        ++guards_open;
      }
      if (compiled->states[k].during) EmitMexStmts(compiled->states[k].during->stmts, env);
      for (std::size_t i = 0; i < guards_open; ++i) {
        indent_ -= 1;
        B("}");
      }
      B("break;");
      indent_ -= 1;
      B("}");
    }
    indent_ -= 1;
    B("}");
    for (std::size_t i = 0; i < def.outputs.size(); ++i) {
      vars_[Key{&sys, b.id(), static_cast<int>(i)}] =
          Cast(env[def.outputs[i].name], DType::kDouble, def.outputs[i].type);
      types_[Key{&sys, b.id(), static_cast<int>(i)}] = def.outputs[i].type;
    }
    return Status::Ok();
  }

  // -- driver -------------------------------------------------------------------
  void EmitDriver(std::string& out) {
    const Model& root = *sm_.root;
    const auto inports = root.Inports();
    const auto outports = root.Outports();
    std::size_t tuple = 0;
    for (ir::BlockId id : inports) tuple += ir::DTypeSize(root.block(id).out_type(0));

    // One tuple's decode, shared by the driver and any other harness: the
    // same decode as ir::Value::FromBytes, so the emitted program sees the
    // inputs the VM and the interpreter see.
    out += "\n/* === Tuple decode: each field is memcpy'd from the tuple; a boolean\n";
    out += " * keeps its low bit and a non-finite single/double reads as 0. === */\n";
    std::vector<std::string> params = {"const uint8_t* tuple"};
    std::vector<std::string> decode_args = {"data + i * dataLen"};
    for (ir::BlockId id : inports) {
      const Block& b = root.block(id);
      params.push_back(CType(b.out_type(0)) + "* " + Sanitize(b.name()));
      decode_args.push_back("&" + Sanitize(b.name()));
    }
    out += "void " + model_name_ + "_decode(" + JoinStrings(params, ", ") + ") {\n";
    if (inports.empty()) out += "  (void)tuple;\n";
    std::size_t offset = 0;
    for (ir::BlockId id : inports) {
      const Block& b = root.block(id);
      const DType t = b.out_type(0);
      const std::string name = Sanitize(b.name());
      out += StrFormat("  memcpy(%s, tuple + %zu, %zu);\n", name.c_str(), offset,
                       ir::DTypeSize(t));
      if (t == DType::kBool) {
        out += StrFormat("  *%s &= 1;\n", name.c_str());
      } else if (ir::DTypeIsFloat(t)) {
        out += StrFormat("  if (!isfinite(*%s)) *%s = 0;\n", name.c_str(), name.c_str());
      }
      offset += ir::DTypeSize(t);
    }
    out += "}\n";

    out += "\n/* === Fuzz driver (Figure 3): splits the fuzzer byte stream into\n";
    out += " * per-iteration tuples and feeds each tuple to the step function. === */\n";
    out += "int FuzzTestOneInput(const uint8_t* data, size_t size) {\n";
    out += StrFormat("  const size_t dataLen = %zu; /* bytes per model iteration */\n", tuple);
    out += "  size_t i = 0;\n";
    out += "  " + model_name_ + "_init();\n";
    out += "  while ((i + 1) * dataLen <= size) {\n";
    for (ir::BlockId id : inports) {
      const Block& b = root.block(id);
      out += StrFormat("    %s %s = 0;\n", CType(b.out_type(0)).c_str(),
                       Sanitize(b.name()).c_str());
    }
    out += "    " + model_name_ + "_decode(" + JoinStrings(decode_args, ", ") + ");\n";
    for (ir::BlockId id : outports) {
      const Block& b = root.block(id);
      out += StrFormat("    %s %s = 0;\n", CType(InType(root, b, 0)).c_str(),
                       Sanitize(b.name()).c_str());
    }
    std::vector<std::string> args;
    for (ir::BlockId id : inports) args.push_back(Sanitize(root.block(id).name()));
    for (ir::BlockId id : outports) args.push_back("&" + Sanitize(root.block(id).name()));
    out += "    " + model_name_ + "_step(" + JoinStrings(args, ", ") + ");\n";
    out += "    ++i;\n";
    out += "  }\n";
    out += "  return 0;\n";
    out += "}\n";
  }

  using Key = std::tuple<const Model*, ir::BlockId, int>;

  const sched::ScheduledModel& sm_;
  const CEmitOptions& opts_;
  std::string model_name_;
  std::string header_;
  std::string states_;
  std::string init_;
  std::string body_;
  std::string outputs_;
  std::string hoisted_decls_;
  int indent_ = 1;
  int var_counter_ = 0;
  std::map<Key, std::string> vars_;
  std::map<Key, DType> types_;
  std::map<const Block*, std::string> state_name_;
};

}  // namespace

Result<std::string> EmitC(const sched::ScheduledModel& sm, const CEmitOptions& opts) {
  return CEmitter(sm, opts).Run();
}

}  // namespace cftcg::codegen
