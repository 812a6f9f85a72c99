#include "analysis/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/strings.hpp"
#include "support/numerics.hpp"

namespace cftcg::analysis {

std::string_view LintSeverityName(LintSeverity s) {
  switch (s) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "warning";
}

namespace {

using blocks::mex::Expr;
using blocks::mex::ExprKind;
using blocks::mex::IfBranch;
using blocks::mex::Stmt;
using blocks::mex::StmtKind;
using ir::Block;
using ir::BlockKind;
using ir::DType;
using ir::Model;
using sldv::Interval;

// ---------------------------------------------------------------------------
// Tri-state interval comparisons: 1 = always true, 0 = never true, -1 =
// undecided. Interval bounds are saturated at +-Interval::kInf, which stands
// in for "unbounded": a bound stored at a saturation limit may extend past
// any other bound stored at the same limit, so equality between two
// same-limit bounds proves nothing. Strict comparisons are self-guarding
// (they can never compare two equal saturated bounds as different).

bool FinB(double v) { return std::fabs(v) < Interval::kInf; }

bool BoundGe(double x, double y) { return x >= y && (x != y || FinB(x)); }

int TriLt(const Interval& a, const Interval& c) {
  if (a.empty() || c.empty()) return -1;
  if (a.hi() < c.lo()) return 1;
  if (BoundGe(a.lo(), c.hi())) return 0;
  return -1;
}

int TriLe(const Interval& a, const Interval& c) {
  if (a.empty() || c.empty()) return -1;
  if (BoundGe(c.lo(), a.hi())) return 1;
  if (a.lo() > c.hi()) return 0;
  return -1;
}

int TriEq(const Interval& a, const Interval& c) {
  if (a.empty() || c.empty()) return -1;
  if (a.lo() == a.hi() && c.lo() == c.hi() && a.lo() == c.lo() && FinB(a.lo())) return 1;
  if (a.lo() > c.hi() || c.lo() > a.hi()) return 0;
  return -1;
}

int Not(int tri) { return tri < 0 ? -1 : 1 - tri; }

/// Reachability of a nested context gated by a tri-state predicate.
int CombineReach(int reach, int tri) {
  if (reach == 0 || tri == 0) return 0;
  if (reach == 1 && tri == 1) return 1;
  return -1;
}

bool UnbLo(const Interval& iv) { return !iv.empty() && iv.lo() <= -Interval::kInf; }
bool UnbHi(const Interval& iv) { return !iv.empty() && iv.hi() >= Interval::kInf; }
bool Unb(const Interval& iv) { return UnbLo(iv) || UnbHi(iv); }

// ---------------------------------------------------------------------------
// AV: an AbsVal plus the set of root inport fields it (transitively) depends
// on. The dependency sets drive the threshold-harvesting heuristic only.

struct AV {
  AbsVal v;
  std::set<int> deps;

  bool operator==(const AV&) const = default;
};

Interval TypeRange(DType t) {
  return Interval(static_cast<double>(ir::DTypeMin(t)), static_cast<double>(ir::DTypeMax(t)));
}

/// Integer-typed value with the interpreter's wrapping semantics abstracted:
/// a hull that stays inside the representable range is exact; anything that
/// could wrap degrades to the full range of the type (sound, never empty).
AV MakeI(const Interval& iv, DType t, std::set<int> deps) {
  const Interval r = TypeRange(t);
  AV out;
  out.deps = std::move(deps);
  if (!iv.empty() && iv.lo() >= r.lo() && iv.hi() <= r.hi()) {
    out.v = AbsVal(iv, false, t);
  } else {
    out.v = AbsVal(r, false, t);
  }
  return out;
}

AV MakeB(int tri, std::set<int> deps) {
  Interval iv = tri == 1 ? Interval::Point(1) : tri == 0 ? Interval::Point(0) : Interval(0, 1);
  AV out;
  out.v = AbsVal(iv, false, DType::kBool);
  out.deps = std::move(deps);
  return out;
}

/// IVal::AsD(): integer values convert exactly into the double domain.
AV AsDouble(const AV& x) {
  AV out = x;
  out.v.type = DType::kDouble;
  if (!ir::DTypeIsFloat(x.v.type)) out.v.maybe_nan = false;
  return out;
}

AV AUnion(const AV& a, const AV& c) {
  AV out;
  out.v = a.v.Union(c.v);
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

/// Truthiness tri-state: `d != 0.0` for floats (NaN counts as true, exactly
/// like the runtime) and `i != 0` for integers.
int ABool(const AV& x) {
  const Interval& iv = x.v.iv;
  if (iv.empty()) return -1;
  const bool can_false = iv.Contains(0.0);
  const bool can_true = x.v.maybe_nan || !(iv.lo() == 0 && iv.hi() == 0);
  if (can_true && !can_false) return 1;
  if (!can_true && can_false) return 0;
  return -1;
}

/// Mirrors the interpreter's Cast (itself the VM lowering's CastTo).
AV ACast(const AV& x, DType want) {
  const bool want_float = ir::DTypeIsFloat(want);
  const bool is_float = ir::DTypeIsFloat(x.v.type);
  if (want_float) {
    // float->float carries the same double; int->float is exact.
    AV out = x;
    out.v.type = want;
    if (!is_float) out.v.maybe_nan = false;
    return out;
  }
  if (!is_float) {
    if (want == DType::kBool) return MakeB(ABool(x), x.deps);
    return MakeI(x.v.iv, want, x.deps);
  }
  // float -> integer
  if (want == DType::kBool) return MakeB(ABool(x), x.deps);
  // TruncToI64 then wrap. NaN truncates to 0; a hull reaching the saturation
  // region (stand-in for +-inf) or past the int64 edge could land anywhere
  // after the wrap, so degrade to the full range.
  const Interval& iv = x.v.iv;
  if (x.v.maybe_nan || iv.empty() || iv.lo() <= -9.2e18 || iv.hi() >= 9.2e18) {
    return MakeI(Interval::Whole(), want, x.deps);
  }
  return MakeI(Interval(std::trunc(iv.lo()), std::trunc(iv.hi())), want, x.deps);
}

/// Tri-state of `a <op> c` with the interpreter's Relate semantics: operands
/// promoted (and integer-cast, with wrapping) before comparison; NaN compares
/// false under everything except `ne`, where it compares true.
int ARelate(const AV& a, const AV& c, std::string_view op) {
  const DType pt = ir::PromoteDTypes(a.v.type, c.v.type);
  AV x = a;
  AV y = c;
  if (!ir::DTypeIsFloat(pt)) {
    x = ACast(a, pt);
    y = ACast(c, pt);
  }
  const bool nan = x.v.maybe_nan || y.v.maybe_nan;
  int t;
  bool is_ne = false;
  if (op == "lt" || op == "<") {
    t = TriLt(x.v.iv, y.v.iv);
  } else if (op == "le" || op == "<=") {
    t = TriLe(x.v.iv, y.v.iv);
  } else if (op == "gt" || op == ">") {
    t = TriLt(y.v.iv, x.v.iv);
  } else if (op == "ge" || op == ">=") {
    t = TriLe(y.v.iv, x.v.iv);
  } else if (op == "eq" || op == "==") {
    t = TriEq(x.v.iv, y.v.iv);
  } else {  // ne / != / ~= (and, like the runtime, any unknown op)
    t = Not(TriEq(x.v.iv, y.v.iv));
    is_ne = true;
  }
  if (is_ne) {
    if (nan && t == 0) t = -1;  // NaN != x is true
  } else {
    if (nan && t == 1) t = -1;  // NaN breaks every always-claim
  }
  return t;
}

// -- float arithmetic with NaN generation -----------------------------------
// inf - inf and 0 * inf produce NaN at runtime; a bound at the saturation
// limit may stand for a true +-inf, so those combinations set maybe_nan.

AV AAdd(const AV& a, const AV& c) {
  AV out;
  out.v.iv = a.v.iv.Add(c.v.iv);
  out.v.maybe_nan = a.v.maybe_nan || c.v.maybe_nan || (UnbHi(a.v.iv) && UnbLo(c.v.iv)) ||
                    (UnbLo(a.v.iv) && UnbHi(c.v.iv));
  out.v.type = DType::kDouble;
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

AV ASub(const AV& a, const AV& c) {
  AV out;
  out.v.iv = a.v.iv.Sub(c.v.iv);
  out.v.maybe_nan = a.v.maybe_nan || c.v.maybe_nan || (UnbHi(a.v.iv) && UnbHi(c.v.iv)) ||
                    (UnbLo(a.v.iv) && UnbLo(c.v.iv));
  out.v.type = DType::kDouble;
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

AV AMul(const AV& a, const AV& c) {
  AV out;
  out.v.iv = a.v.iv.Mul(c.v.iv);
  out.v.maybe_nan = a.v.maybe_nan || c.v.maybe_nan ||
                    (a.v.iv.Contains(0.0) && Unb(c.v.iv)) ||
                    (c.v.iv.Contains(0.0) && Unb(a.v.iv));
  out.v.type = DType::kDouble;
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

/// SafeDiv clamps any non-finite quotient to 0, so the abstract result never
/// carries NaN but must include 0 whenever the runtime could produce inf or
/// NaN: divisor touching zero, NaN operands, or operands/quotients reaching
/// the saturation region.
AV ASafeDiv(const AV& a, const AV& c) {
  AV out;
  Interval r = a.v.iv.Div(c.v.iv);
  if (c.v.iv.Contains(0.0) || a.v.maybe_nan || c.v.maybe_nan || Unb(a.v.iv) || Unb(c.v.iv) ||
      Unb(r)) {
    r = r.Union(Interval::Point(0));
  }
  out.v = AbsVal(r, false, DType::kDouble);
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

/// SafeMod / SafeRem: |result| < |divisor| and a zero divisor yields 0; an
/// infinite dividend makes fmod return NaN.
AV ASafeMod(const AV& a, const AV& c) {
  AV out;
  double m = 0;
  if (!c.v.iv.empty()) m = std::max(std::fabs(c.v.iv.lo()), std::fabs(c.v.iv.hi()));
  out.v.iv = Interval(-m, m);
  out.v.maybe_nan = a.v.maybe_nan || c.v.maybe_nan || Unb(a.v.iv);
  out.v.type = DType::kDouble;
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

/// fmin/fmax semantics: NaN loses unless both are NaN, so a maybe-NaN side
/// widens the hull to the other side's values.
AV AFMinMax(const AV& a, const AV& c, bool is_min) {
  AV out;
  out.v.iv = is_min ? a.v.iv.Min(c.v.iv) : a.v.iv.Max(c.v.iv);
  if (a.v.maybe_nan) out.v.iv = out.v.iv.Union(c.v.iv);
  if (c.v.maybe_nan) out.v.iv = out.v.iv.Union(a.v.iv);
  out.v.maybe_nan = a.v.maybe_nan && c.v.maybe_nan;
  out.v.type = DType::kDouble;
  out.deps = a.deps;
  out.deps.insert(c.deps.begin(), c.deps.end());
  return out;
}

// ---------------------------------------------------------------------------
// AbstractExec: the abstract twin of sim/interpreter.cpp's Exec. One Step()
// is one abstract model iteration; Run() iterates to a state fixpoint (with
// widening) and then performs a recording pass that derives objective
// verdicts, lints, and threshold harvests from the stable hulls.

class AbstractExec {
 public:
  AbstractExec(const sched::ScheduledModel& sm, const AnalyzeOptions& opts)
      : sm_(sm),
        spec_(sm.spec),
        opts_(opts),
        feasible_(static_cast<std::size_t>(sm.spec.FuzzBranchCount()), 0),
        visited_(static_cast<std::size_t>(sm.spec.FuzzBranchCount()), 0),
        dead_reason_(static_cast<std::size_t>(sm.spec.FuzzBranchCount())),
        trivial_reason_(static_cast<std::size_t>(sm.spec.FuzzBranchCount())) {}

  ModelAnalysis Run() {
    ModelAnalysis res;
    res.justifications = coverage::JustificationSet(spec_);
    int iter = 0;
    for (; iter < opts_.max_iters; ++iter) {
      widen_ = iter >= opts_.widen_after;
      record_ = false;
      if (!Step()) {
        res.converged = true;
        break;
      }
    }
    res.iterations = iter;
    converged_ = res.converged;
    // Recording pass over the fixpoint state (a no-op on the state itself).
    record_ = true;
    widen_ = false;
    Step();
    for (const auto& [key, av] : values_) res.signals[key] = av.v;
    StaticLints(*sm_.root, sm_.root->name(), res.lints);
    if (converged_) {
      res.lints.insert(res.lints.end(), dyn_lints_.begin(), dyn_lints_.end());
      Finalize(res);
    }
    res.inport_ranges = ComputeInportRanges();
    return res;
  }

 private:
  using Key = std::tuple<const Model*, ir::BlockId, int>;

  struct BState {
    bool init = false;
    std::vector<AV> outs;               // value state (delays, held outputs, ...)
    std::set<int> istates;              // small discrete state (relay, chart, ...)
    std::map<std::string, AV> vars;     // chart variables and outputs
  };

  // -- plumbing ---------------------------------------------------------------

  bool Step() {
    changed_ = false;
    values_.clear();
    ExecSystem(*sm_.root, 1, sm_.root->name());
    return changed_;
  }

  void Set(const Model& sys, ir::BlockId b, int port, AV v) {
    values_[Key{&sys, b, port}] = std::move(v);
  }
  AV Get(const Model& sys, ir::BlockId b, int port) const {
    auto it = values_.find(Key{&sys, b, port});
    if (it == values_.end()) {
      AV top;
      top.v = AbsVal::Top();
      return top;
    }
    return it->second;
  }
  AV In(const Model& sys, const Block& b, int port) const {
    const ir::Wire* w = sys.DriverOf(b.id(), port);
    if (w == nullptr) {
      AV top;
      top.v = AbsVal::Top();
      return top;
    }
    return Get(sys, w->src.block, w->src.port);
  }

  void MergeAV(AV& slot, const AV& v) {
    AV u = AUnion(slot, v);
    u.v.type = slot.v.type;
    if (widen_) u.v.iv = slot.v.iv.Widen(u.v.iv);
    if (!ir::DTypeIsFloat(u.v.type)) {
      u.v.iv = u.v.iv.Intersect(TypeRange(u.v.type));
      if (u.v.iv.empty()) u.v.iv = TypeRange(u.v.type);
      u.v.maybe_nan = false;
    }
    if (!(u == slot)) {
      slot = std::move(u);
      changed_ = true;
    }
  }

  void AddIState(BState& st, int s) {
    if (st.istates.insert(s).second) changed_ = true;
  }

  // -- objective marking (recording pass only) --------------------------------

  void MarkSlot(int slot, bool can, int reach, const std::string& why_dead) {
    if (!record_ || reach == 0) return;
    const auto i = static_cast<std::size_t>(slot);
    visited_[i] = 1;
    if (can) {
      feasible_[i] = 1;
    } else if (dead_reason_[i].empty()) {
      dead_reason_[i] = why_dead;
    }
  }

  void MarkTrivial(int slot, const std::string& why) {
    if (!record_) return;
    auto& r = trivial_reason_[static_cast<std::size_t>(slot)];
    if (r.empty()) r = why;
  }

  void MarkOutcome(coverage::DecisionId d, int o, bool can, int reach,
                   const std::string& why_dead) {
    MarkSlot(spec_.OutcomeSlot(d, o), can, reach, why_dead);
  }

  /// Two-outcome decision driven by one tri-state predicate.
  void MarkOutcomes2(coverage::DecisionId d, int tri, int reach, const std::string& why0,
                     const std::string& why1, const std::string& const_why) {
    MarkOutcome(d, 0, tri != 0, reach, why0);
    MarkOutcome(d, 1, tri != 1, reach, why1);
    if (reach == 1 && tri != -1) MarkTrivial(spec_.OutcomeSlot(d, tri == 1 ? 0 : 1), const_why);
  }

  /// Three-outcome below/inside/above decision (Saturation, DeadZone, ...).
  void MarkOutcomes3(coverage::DecisionId d, bool can0, bool can1, bool can2, int reach,
                     const std::string& why0, const std::string& why1, const std::string& why2,
                     const std::string& const_why) {
    MarkOutcome(d, 0, can0, reach, why0);
    MarkOutcome(d, 1, can1, reach, why1);
    MarkOutcome(d, 2, can2, reach, why2);
    if (reach == 1 && (can0 + can1 + can2) == 1) {
      MarkTrivial(spec_.OutcomeSlot(d, can0 ? 0 : can1 ? 1 : 2), const_why);
    }
  }

  void MarkCondTri(coverage::ConditionId c, int tri, int reach, const std::string& what) {
    const std::string& name = spec_.condition(c).name;
    MarkSlot(spec_.ConditionTrueSlot(c), tri != 0, reach,
             StrFormat("condition '%s' is never true: %s", name.c_str(), what.c_str()));
    MarkSlot(spec_.ConditionFalseSlot(c), tri != 1, reach,
             StrFormat("condition '%s' is never false: %s", name.c_str(), what.c_str()));
    if (reach == 1 && tri != -1) {
      MarkTrivial(tri == 1 ? spec_.ConditionTrueSlot(c) : spec_.ConditionFalseSlot(c),
                  StrFormat("condition '%s' is constant: %s", name.c_str(), what.c_str()));
    }
  }

  // -- heuristics -------------------------------------------------------------

  void Harvest(const AV& from, double threshold) {
    if (!record_ || !FinB(threshold)) return;
    for (int field : from.deps) thresholds_[field].insert(threshold);
  }

  void Lint(const void* site, LintSeverity sev, const char* check, const std::string& path,
            std::string msg) {
    if (!record_) return;
    if (!linted_.insert({site, check}).second) return;
    dyn_lints_.push_back({sev, check, path, std::move(msg)});
  }

  static std::string BlockPath(const std::string& path, const Block& b) {
    return path + "/" + b.name();
  }

  // -- execution --------------------------------------------------------------

  /// True when a restriction set is installed and `id` is outside it.
  /// Skipped blocks are never executed, so their signals read as Top;
  /// sound for cones closed under the dependence relation (depgraph.hpp).
  [[nodiscard]] bool Restricted(const Model& sys, ir::BlockId id) const {
    return opts_.restrict_to != nullptr &&
           opts_.restrict_to->find({&sys, id}) == opts_.restrict_to->end();
  }

  void ExecSystem(const Model& sys, int reach, const std::string& path) {
    for (ir::BlockId id : sm_.OrderOf(&sys)) {
      if (Restricted(sys, id)) continue;
      ExecBlock(sys, sys.block(id), reach, path);
    }
    for (ir::BlockId id : sm_.OrderOf(&sys)) {
      if (Restricted(sys, id)) continue;
      UpdateState(sys, sys.block(id), reach);
    }
  }

  void SeedSub(const Model& sys, const Block& b, const Model& sub, int offset) {
    const auto inports = sub.Inports();
    for (std::size_t k = 0; k < inports.size(); ++k) {
      const Block& ip = sub.block(inports[k]);
      Set(sub, ip.id(), 0, ACast(In(sys, b, offset + static_cast<int>(k)), ip.out_type(0)));
    }
  }

  /// Publishes one executed sub-model's outports into an accumulating union
  /// of the compound block's outputs.
  void AccumulateSubOutputs(const Block& b, const Model& sub, std::vector<AV>& acc,
                            bool& first) {
    const auto outports = sub.Outports();
    for (std::size_t k = 0; k < outports.size() && k < acc.size(); ++k) {
      const ir::Wire* w = sub.DriverOf(outports[k], 0);
      if (w == nullptr) continue;
      AV v = ACast(Get(sub, w->src.block, w->src.port), b.out_type(static_cast<int>(k)));
      acc[k] = first ? v : AUnion(acc[k], v);
    }
    first = false;
  }

  void UpdateState(const Model& sys, const Block& b, int reach) {
    switch (b.kind()) {
      case BlockKind::kUnitDelay:
      case BlockKind::kMemory:
      case BlockKind::kDelay: {
        BState& st = state_[&b];
        if (!st.init) return;  // output pass initializes; order guarantees init
        MergeAV(st.outs[0], ACast(In(sys, b, 0), b.out_type(0)));
        return;
      }
      case BlockKind::kDiscreteIntegrator: {
        BState& st = state_[&b];
        if (!st.init) return;
        const double gain = b.params().GetDouble("gain", 1.0);
        AV gain_av;
        gain_av.v = AbsVal::Point(gain);
        AV acc = AAdd(st.outs[0], AMul(gain_av, AsDouble(In(sys, b, 0))));
        if (b.params().Has("upper") || b.params().Has("lower")) {
          const auto d = sm_.DecisionAt(&b, 0);
          const double lo = b.params().GetDouble("lower", -1e30);
          const double hi = b.params().GetDouble("upper", 1e30);
          AV lo_av;
          lo_av.v = AbsVal::Point(lo);
          AV hi_av;
          hi_av.v = AbsVal::Point(hi);
          const int tri_lo = ARelate(acc, lo_av, "lt");
          const int tri_hi = ARelate(acc, hi_av, "gt");
          const bool can0 = tri_lo != 0;
          const bool can2 = tri_lo != 1 && tri_hi != 0;
          const bool can1 = tri_lo != 1 && tri_hi != 1;
          MarkOutcomes3(d, can0, can1, can2, reach,
                        StrFormat("accumulator %s never drops below lower limit %g",
                                  acc.v.iv.ToString().c_str(), lo),
                        StrFormat("accumulator %s never stays inside [%g, %g]",
                                  acc.v.iv.ToString().c_str(), lo, hi),
                        StrFormat("accumulator %s never exceeds upper limit %g",
                                  acc.v.iv.ToString().c_str(), hi),
                        "integrator accumulator is constant");
          AV clamped;
          clamped.v.type = DType::kDouble;
          clamped.deps = acc.deps;
          Interval iv;
          if (can0) iv = iv.Union(Interval::Point(lo));
          if (can2) iv = iv.Union(Interval::Point(hi));
          if (can1) iv = iv.Union(acc.v.iv.Intersect(Interval(lo, hi)));
          if (iv.empty()) iv = acc.v.iv;
          clamped.v.iv = iv;
          clamped.v.maybe_nan = acc.v.maybe_nan;  // NaN sails through the compares
          acc = clamped;
        }
        MergeAV(st.outs[0], acc);
        return;
      }
      default:
        return;
    }
  }

  void InitNumericState(const Block& b, BState& st, DType t, double init) {
    AV v;
    if (ir::DTypeIsFloat(t)) {
      v.v = AbsVal::Point(init, t);
    } else {
      v.v = AbsVal::Point(
          static_cast<double>(ir::WrapToDType(num::TruncToI64(init), t)), t);
      v.v.type = t;
    }
    st.outs.assign(1, std::move(v));
    st.init = true;
    changed_ = true;
  }

  void ExecBlock(const Model& sys, const Block& b, int reach, const std::string& path);

  // -- mex --------------------------------------------------------------------

  using Env = std::map<std::string, AV>;

  AV AEvalExpr(const Expr& e, Env& env);
  int AEvalBool(const Expr& e, Env& env);
  int AEvalCond(const Expr& e, Env& env, const std::map<const Expr*, int>& bit_of, int reach);
  int AEvalDecisionExpr(const Expr& cond, Env& env, coverage::DecisionId d, int reach);
  void AEvalStmts(const std::vector<blocks::mex::StmtPtr>& stmts, Env& env, int reach);
  void AEvalStmt(const Stmt& stmt, Env& env, int reach);

  static Env MergeEnvs(std::vector<Env>& envs) {
    Env out = std::move(envs.front());
    for (std::size_t i = 1; i < envs.size(); ++i) {
      for (auto& [k, v] : envs[i]) {
        auto it = out.find(k);
        if (it == out.end()) {
          out.emplace(k, std::move(v));
        } else {
          it->second = AUnion(it->second, v);
        }
      }
    }
    return out;
  }

  void ExecExprFunc(const Model& sys, const Block& b, int reach, const std::string& path);
  void ExecChart(const Model& sys, const Block& b, int reach, const std::string& path);

  // -- finalization -----------------------------------------------------------

  void StaticLints(const Model& sys, const std::string& path, std::vector<LintDiagnostic>& out);
  void Finalize(ModelAnalysis& res);
  std::vector<Interval> ComputeInportRanges();

  const sched::ScheduledModel& sm_;
  const coverage::CoverageSpec& spec_;
  AnalyzeOptions opts_;
  std::map<Key, AV> values_;
  std::map<const Block*, BState> state_;
  bool widen_ = false;
  bool record_ = false;
  bool converged_ = false;
  bool changed_ = false;
  std::string cur_mex_path_;  // block path of the ExprFunc/Chart being evaluated

  std::vector<char> feasible_;
  std::vector<char> visited_;
  std::vector<std::string> dead_reason_;
  std::vector<std::string> trivial_reason_;
  std::map<int, std::set<double>> thresholds_;  // root inport field -> thresholds
  std::vector<LintDiagnostic> dyn_lints_;
  std::set<std::pair<const void*, std::string>> linted_;
};

void AbstractExec::ExecBlock(const Model& sys, const Block& b, int reach,
                             const std::string& path) {
  const std::string bpath = BlockPath(path, b);
  auto point = [](double v) {
    AV x;
    x.v = AbsVal::Point(v);
    return x;
  };
  auto arith2 = [&](char op) {
    const DType t = b.out_type(0);
    if (ir::DTypeIsFloat(t)) {
      const AV a = AsDouble(In(sys, b, 0));
      const AV c = AsDouble(In(sys, b, 1));
      AV y = op == '-' ? ASub(a, c) : ASafeMod(a, c);
      y.v.type = t;
      Set(sys, b.id(), 0, std::move(y));
    } else {
      const AV a = ACast(In(sys, b, 0), t);
      const AV c = ACast(In(sys, b, 1), t);
      std::set<int> deps = a.deps;
      deps.insert(c.deps.begin(), c.deps.end());
      if (op == '-') {
        Set(sys, b.id(), 0, MakeI(a.v.iv.Sub(c.v.iv), t, std::move(deps)));
      } else {
        // SafeModI/SafeRemI: |result| <= max|divisor| and 0 on zero divisors.
        const double m =
            c.v.iv.empty() ? 0 : std::max(std::fabs(c.v.iv.lo()), std::fabs(c.v.iv.hi()));
        Set(sys, b.id(), 0, MakeI(Interval(-m, m), t, std::move(deps)));
      }
    }
  };
  switch (b.kind()) {
    case BlockKind::kInport: {
      if (values_.count(Key{&sys, b.id(), 0}) != 0) return;  // seeded by a compound
      const int field = static_cast<int>(b.params().GetInt("port", 0));
      const DType t = b.out_type(0);
      AV v;
      // Raw fuzz bytes: any bit pattern. Float inports can carry NaN/inf;
      // integer inports span the full representable range. Interval::OfType's
      // "practical" float range is a search heuristic, not a sound bound, so
      // it is NOT used here.
      v.v = ir::DTypeIsFloat(t) ? AbsVal(Interval::Whole(), true, t)
                                : AbsVal(TypeRange(t), false, t);
      v.deps.insert(field);
      Set(sys, b.id(), 0, std::move(v));
      return;
    }
    case BlockKind::kOutport:
      return;
    case BlockKind::kConstant: {
      const DType t = b.out_type(0);
      const double v = b.params().GetDouble("value", 0.0);
      AV x;
      x.v = ir::DTypeIsFloat(t)
                ? AbsVal::Point(v, t)
                : AbsVal::Point(
                      static_cast<double>(ir::WrapToDType(num::TruncToI64(v), t)), t);
      Set(sys, b.id(), 0, std::move(x));
      return;
    }
    case BlockKind::kGain: {
      AV y = AMul(AsDouble(In(sys, b, 0)), point(b.params().GetDouble("gain", 1.0)));
      Set(sys, b.id(), 0, ACast(y, b.out_type(0)));
      return;
    }
    case BlockKind::kBias: {
      AV y = AAdd(AsDouble(In(sys, b, 0)), point(b.params().GetDouble("bias", 0.0)));
      Set(sys, b.id(), 0, ACast(y, b.out_type(0)));
      return;
    }
    case BlockKind::kSum: {
      const std::string signs = b.params().GetString("signs", "++");
      const DType t = b.out_type(0);
      if (ir::DTypeIsFloat(t)) {
        AV acc;
        for (std::size_t k = 0; k < signs.size(); ++k) {
          AV v = AsDouble(In(sys, b, static_cast<int>(k)));
          if (k == 0) {
            acc = signs[k] == '-' ? ASub(point(0.0), v) : v;
          } else {
            acc = signs[k] == '-' ? ASub(acc, v) : AAdd(acc, v);
          }
        }
        acc.v.type = t;
        Set(sys, b.id(), 0, std::move(acc));
      } else {
        AV acc;
        for (std::size_t k = 0; k < signs.size(); ++k) {
          AV v = ACast(In(sys, b, static_cast<int>(k)), t);
          if (k == 0) {
            acc = signs[k] == '-' ? MakeI(v.v.iv.Neg(), t, v.deps) : v;
          } else {
            std::set<int> deps = acc.deps;
            deps.insert(v.deps.begin(), v.deps.end());
            acc = MakeI(signs[k] == '-' ? acc.v.iv.Sub(v.v.iv) : acc.v.iv.Add(v.v.iv), t,
                        std::move(deps));
          }
        }
        Set(sys, b.id(), 0, std::move(acc));
      }
      return;
    }
    case BlockKind::kSubtract:
      return arith2('-');
    case BlockKind::kMod:
    case BlockKind::kRem:
      return arith2('%');
    case BlockKind::kProduct: {
      const std::string ops = b.params().GetString("ops", "**");
      AV acc = AsDouble(In(sys, b, 0));
      if (!ops.empty() && ops[0] == '/') {
        if (acc.v.iv.Contains(0.0)) {
          Lint(&b, LintSeverity::kWarning, "possible-division-by-zero", bpath,
               StrFormat("reciprocal input range %s contains zero", acc.v.iv.ToString().c_str()));
        }
        acc = ASafeDiv(point(1.0), acc);
      }
      for (std::size_t k = 1; k < ops.size(); ++k) {
        AV v = AsDouble(In(sys, b, static_cast<int>(k)));
        if (ops[k] == '/') {
          if (v.v.iv.Contains(0.0)) {
            Lint(&b, LintSeverity::kWarning, "possible-division-by-zero", bpath,
                 StrFormat("divisor input %zu range %s contains zero", k,
                           v.v.iv.ToString().c_str()));
          }
          acc = ASafeDiv(acc, v);
        } else {
          acc = AMul(acc, v);
        }
      }
      Set(sys, b.id(), 0, ACast(acc, b.out_type(0)));
      return;
    }
    case BlockKind::kDivide: {
      const AV a = AsDouble(In(sys, b, 0));
      const AV c = AsDouble(In(sys, b, 1));
      if (c.v.iv.Contains(0.0)) {
        Lint(&b, LintSeverity::kWarning, "possible-division-by-zero", bpath,
             StrFormat("divisor range %s contains zero", c.v.iv.ToString().c_str()));
      }
      Set(sys, b.id(), 0, ACast(ASafeDiv(a, c), b.out_type(0)));
      return;
    }
    case BlockKind::kMin:
    case BlockKind::kMax: {
      const bool is_min = b.kind() == BlockKind::kMin;
      const DType t = b.out_type(0);
      const AV a = ACast(In(sys, b, 0), t);
      const AV c = ACast(In(sys, b, 1), t);
      const auto d = sm_.DecisionAt(&b, 0);
      const int tri = ARelate(a, c, is_min ? "le" : "ge");
      MarkOutcomes2(d, tri, reach,
                    StrFormat("first input %s never wins against %s",
                              a.v.iv.ToString().c_str(), c.v.iv.ToString().c_str()),
                    StrFormat("second input %s never wins against %s",
                              c.v.iv.ToString().c_str(), a.v.iv.ToString().c_str()),
                    "min/max choice is constant");
      Set(sys, b.id(), 0, tri == 1 ? a : tri == 0 ? c : AUnion(a, c));
      return;
    }
    case BlockKind::kAbs: {
      const DType t = b.out_type(0);
      const AV u = ACast(In(sys, b, 0), t);
      if (ir::DTypeIsFloat(t)) {
        AV y = u;
        y.v.iv = u.v.iv.Abs();
        Set(sys, b.id(), 0, std::move(y));
        return;
      }
      const auto d = sm_.DecisionAt(&b, 0);
      AV zero;
      zero.v = AbsVal::Point(0, t);
      const int tri = ARelate(u, zero, "lt");
      MarkOutcomes2(d, tri, reach,
                    StrFormat("input %s is never negative", u.v.iv.ToString().c_str()),
                    StrFormat("input %s is always negative", u.v.iv.ToString().c_str()),
                    "abs sign test is constant");
      Set(sys, b.id(), 0, MakeI(u.v.iv.Abs(), t, u.deps));
      return;
    }
    case BlockKind::kUnaryMinus: {
      const DType t = b.out_type(0);
      const AV u = ACast(In(sys, b, 0), t);
      if (ir::DTypeIsFloat(t)) {
        AV y = u;
        y.v.iv = u.v.iv.Neg();
        Set(sys, b.id(), 0, std::move(y));
      } else {
        Set(sys, b.id(), 0, MakeI(u.v.iv.Neg(), t, u.deps));
      }
      return;
    }
    case BlockKind::kSign: {
      const DType t = b.out_type(0);
      const AV u = ACast(In(sys, b, 0), t);
      const auto d = sm_.DecisionAt(&b, 0);
      AV zero;
      zero.v = AbsVal::Point(0, u.v.type);
      const int tri_p = ARelate(u, zero, "gt");
      const int tri_n = ARelate(u, zero, "lt");
      const bool can0 = tri_p != 0;
      const bool can1 = tri_p != 1 && tri_n != 0;
      const bool can2 = tri_p != 1 && tri_n != 1;
      MarkOutcomes3(d, can0, can1, can2, reach,
                    StrFormat("input %s is never positive", u.v.iv.ToString().c_str()),
                    StrFormat("input %s is never negative", u.v.iv.ToString().c_str()),
                    StrFormat("input %s is never zero", u.v.iv.ToString().c_str()),
                    "sign of the input is constant");
      Interval iv;
      if (can0) iv = iv.Union(Interval::Point(1));
      if (can1) iv = iv.Union(Interval::Point(-1));
      if (can2) iv = iv.Union(Interval::Point(0));
      if (iv.empty()) iv = Interval(-1, 1);
      AV y;
      if (ir::DTypeIsFloat(t)) {
        y.v = AbsVal(iv, false, t);
        y.deps = u.deps;
      } else {
        y = MakeI(iv, t, u.deps);
      }
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kSqrt: {
      const AV u = AsDouble(In(sys, b, 0));
      auto safe_sqrt = [](double v) { return v < 0 ? 0.0 : std::sqrt(v); };
      AV y;
      y.v = AbsVal(u.v.iv.empty() ? Interval()
                                  : Interval(safe_sqrt(u.v.iv.lo()), safe_sqrt(u.v.iv.hi())),
                   u.v.maybe_nan, DType::kDouble);
      y.deps = u.deps;
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kExp: {
      const AV u = AsDouble(In(sys, b, 0));
      AV y;
      y.deps = u.deps;
      const double elo = u.v.iv.empty() ? 0 : std::exp(u.v.iv.lo());
      const double ehi = u.v.iv.empty() ? 0 : std::exp(u.v.iv.hi());
      Interval iv(std::isfinite(elo) ? elo : Interval::kInf,
                  std::isfinite(ehi) ? ehi : Interval::kInf);
      // Finite() clamps an overflowed (or NaN) result to 0.
      if (!std::isfinite(ehi) || u.v.maybe_nan || UnbHi(u.v.iv)) iv = iv.Union(Interval::Point(0));
      y.v = AbsVal(iv, false, DType::kDouble);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kLog: {
      const AV u = AsDouble(In(sys, b, 0));
      AV y;
      y.deps = u.deps;
      Interval iv;
      if (!u.v.iv.empty() && u.v.iv.hi() > 0) {
        const double lo =
            u.v.iv.lo() <= 0 ? -Interval::kInf : std::log(u.v.iv.lo());
        iv = Interval(std::max(lo, -Interval::kInf), std::min(std::log(u.v.iv.hi()),
                                                              Interval::kInf));
      }
      if (u.v.iv.empty() || u.v.iv.lo() <= 0) iv = iv.Union(Interval::Point(0));
      y.v = AbsVal(iv, u.v.maybe_nan, DType::kDouble);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kSin:
    case BlockKind::kCos: {
      const AV u = AsDouble(In(sys, b, 0));
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(Interval(-1, 1), u.v.maybe_nan || Unb(u.v.iv), DType::kDouble);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kTan: {
      const AV u = AsDouble(In(sys, b, 0));
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(Interval::Whole(), false, DType::kDouble);  // Finite() kills NaN/inf
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kFloor:
    case BlockKind::kCeil:
    case BlockKind::kRound: {
      const DType t = b.out_type(0);
      if (!ir::DTypeIsFloat(t)) {
        Set(sys, b.id(), 0, In(sys, b, 0));
        return;
      }
      const AV u = AsDouble(In(sys, b, 0));
      auto f = [&](double v) {
        if (b.kind() == BlockKind::kFloor) return std::floor(v);
        if (b.kind() == BlockKind::kCeil) return std::ceil(v);
        return std::nearbyint(v);
      };
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(u.v.iv.empty() ? Interval() : Interval(f(u.v.iv.lo()), f(u.v.iv.hi())),
                   u.v.maybe_nan, t);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kAtan2: {
      const AV a = AsDouble(In(sys, b, 0));
      const AV c = AsDouble(In(sys, b, 1));
      AV y;
      y.deps = a.deps;
      y.deps.insert(c.deps.begin(), c.deps.end());
      y.v = AbsVal(Interval(-3.14159265358979323846, 3.14159265358979323846),
                   a.v.maybe_nan || c.v.maybe_nan, DType::kDouble);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kPow: {
      const AV a = AsDouble(In(sys, b, 0));
      const AV c = AsDouble(In(sys, b, 1));
      AV y;
      y.deps = a.deps;
      y.deps.insert(c.deps.begin(), c.deps.end());
      y.v = AbsVal(Interval::Whole(), false, DType::kDouble);  // Finite() kills NaN/inf
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kSaturation: {
      const DType t = b.out_type(0);
      const AV u = ACast(In(sys, b, 0), t);
      const auto d = sm_.DecisionAt(&b, 0);
      double lo = b.params().GetDouble("lower", 0.0);
      double hi = b.params().GetDouble("upper", 1.0);
      if (!ir::DTypeIsFloat(t)) {
        lo = static_cast<double>(ir::ClampToDType(num::TruncToI64(lo), t));
        hi = static_cast<double>(ir::ClampToDType(num::TruncToI64(hi), t));
      }
      Harvest(u, lo);
      Harvest(u, hi);
      AV lo_av;
      lo_av.v = AbsVal::Point(lo, u.v.type);
      AV hi_av;
      hi_av.v = AbsVal::Point(hi, u.v.type);
      const int tri_lo = ARelate(u, lo_av, "lt");
      // The runtime tests the limits sequentially (u < lo, else u > hi, else
      // inside), so the later branches see only the not-below values. The
      // refinement matters when the limits are inverted (lo > hi makes
      // "inside" impossible). NaN fails both comparisons and falls
      // through to the inside branch unclamped.
      const Interval not_below = u.v.iv.RefineGe(lo_av.v.iv);
      const bool can0 = tri_lo != 0;
      const bool can2 = !not_below.RefineGt(hi_av.v.iv).empty();
      const bool can1 = !not_below.RefineLe(hi_av.v.iv).empty() || u.v.maybe_nan;
      MarkOutcomes3(
          d, can0, can1, can2, reach,
          StrFormat("input %s never drops below lower limit %g", u.v.iv.ToString().c_str(), lo),
          StrFormat("input %s never lands inside [%g, %g]", u.v.iv.ToString().c_str(), lo, hi),
          StrFormat("input %s never exceeds upper limit %g", u.v.iv.ToString().c_str(), hi),
          "saturation region is constant");
      if (reach != 0) {
        if (!can1) {
          Lint(&b, LintSeverity::kWarning, "always-saturating", bpath,
               StrFormat("input %s always saturates at [%g, %g]", u.v.iv.ToString().c_str(), lo,
                         hi));
        } else if (!can0 && !can2) {
          Lint(&b, LintSeverity::kInfo, "never-saturates", bpath,
               StrFormat("input %s never reaches the limits [%g, %g]; the block is a pass-through",
                         u.v.iv.ToString().c_str(), lo, hi));
        }
      }
      Interval iv;
      if (can0) iv = iv.Union(Interval::Point(lo));
      if (can2) iv = iv.Union(Interval::Point(hi));
      if (can1) iv = iv.Union(u.v.iv.Intersect(Interval(lo, hi)));
      if (iv.empty()) iv = u.v.iv.Clamp(lo, hi);
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(iv, u.v.maybe_nan, t);  // NaN input falls through unclamped
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kDeadZone: {
      const AV u = AsDouble(In(sys, b, 0));
      const double s0 = b.params().GetDouble("start", -0.5);
      const double s1 = b.params().GetDouble("end", 0.5);
      Harvest(u, s0);
      Harvest(u, s1);
      const auto d = sm_.DecisionAt(&b, 0);
      const int tri_lo = ARelate(u, point(s0), "lt");
      const int tri_hi = ARelate(u, point(s1), "gt");
      const bool can0 = tri_lo != 0;
      const bool can2 = tri_lo != 1 && tri_hi != 0;
      const bool can1 = tri_lo != 1 && tri_hi != 1;
      MarkOutcomes3(
          d, can0, can1, can2, reach,
          StrFormat("input %s never drops below start %g", u.v.iv.ToString().c_str(), s0),
          StrFormat("input %s never lands inside the dead zone [%g, %g]",
                    u.v.iv.ToString().c_str(), s0, s1),
          StrFormat("input %s never exceeds end %g", u.v.iv.ToString().c_str(), s1),
          "dead-zone region is constant");
      Interval iv;
      if (can0) iv = iv.Union(u.v.iv.RefineLt(point(s0).v.iv).Sub(Interval::Point(s0)));
      if (can2) iv = iv.Union(u.v.iv.RefineGt(point(s1).v.iv).Sub(Interval::Point(s1)));
      if (can1) iv = iv.Union(Interval::Point(0));
      if (iv.empty()) iv = Interval::Point(0);
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(iv, false, DType::kDouble);  // NaN input lands in the zone: output 0
      Set(sys, b.id(), 0, ACast(y, b.out_type(0)));
      return;
    }
    case BlockKind::kRateLimiter: {
      BState& st = state_[&b];
      if (!st.init) InitNumericState(b, st, DType::kDouble, b.params().GetDouble("init", 0.0));
      const AV u = AsDouble(In(sys, b, 0));
      const double rise = b.params().GetDouble("rising", 1.0);
      const double fall = b.params().GetDouble("falling", -1.0);
      const auto d = sm_.DecisionAt(&b, 0);
      const AV delta = ASub(u, st.outs[0]);
      const int tri_r = ARelate(delta, point(rise), "gt");
      const int tri_f = ARelate(delta, point(fall), "lt");
      const bool can0 = tri_r != 0;
      const bool can2 = tri_r != 1 && tri_f != 0;
      const bool can1 = tri_r != 1 && tri_f != 1;
      MarkOutcomes3(
          d, can0, can2, can1, reach,  // outcome order: 0 rising, 2 falling, 1 pass
          StrFormat("delta %s never exceeds the rising rate %g", delta.v.iv.ToString().c_str(),
                    rise),
          StrFormat("delta %s never stays within the rate limits", delta.v.iv.ToString().c_str()),
          StrFormat("delta %s never drops below the falling rate %g",
                    delta.v.iv.ToString().c_str(), fall),
          "rate-limiter branch is constant");
      AV y;
      y.deps = u.deps;
      Interval iv;
      bool nan = false;
      if (can0) iv = iv.Union(st.outs[0].v.iv.Add(Interval::Point(rise)));
      if (can2) iv = iv.Union(st.outs[0].v.iv.Add(Interval::Point(fall)));
      if (can1) {
        iv = iv.Union(u.v.iv);
        nan = nan || u.v.maybe_nan;
      }
      if (iv.empty()) iv = u.v.iv;
      nan = nan || st.outs[0].v.maybe_nan;
      y.v = AbsVal(iv, nan, DType::kDouble);
      y.deps.insert(st.outs[0].deps.begin(), st.outs[0].deps.end());
      MergeAV(st.outs[0], y);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kQuantizer: {
      const double q = b.params().GetDouble("interval", 1.0);
      const AV u = AsDouble(In(sys, b, 0));
      AV r = ASafeDiv(u, point(q));
      Interval iv = r.v.iv.empty()
                        ? Interval::Point(0)
                        : Interval(std::nearbyint(r.v.iv.lo()), std::nearbyint(r.v.iv.hi()));
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(iv.Mul(Interval::Point(q)), false, DType::kDouble);
      Set(sys, b.id(), 0, ACast(y, b.out_type(0)));
      return;
    }
    case BlockKind::kRelay: {
      BState& st = state_[&b];
      if (!st.init) {
        st.init = true;
        changed_ = true;
        st.istates.insert(b.params().GetDouble("init", 0.0) != 0.0 ? 1 : 0);
      }
      const AV u = AsDouble(In(sys, b, 0));
      const double off_pt = b.params().GetDouble("off_point", 0.0);
      const double on_pt = b.params().GetDouble("on_point", 1.0);
      Harvest(u, off_pt);
      Harvest(u, on_pt);
      const auto d = sm_.DecisionAt(&b, 0);
      const int tri_off = ARelate(u, point(off_pt), "le");
      const int tri_on = ARelate(u, point(on_pt), "ge");
      std::set<int> next;
      for (int s : st.istates) {
        if (s == 1) {
          if (tri_off != 0) next.insert(0);
          if (tri_off != 1) next.insert(1);
        } else {
          if (tri_on != 0) next.insert(1);
          if (tri_on != 1) next.insert(0);
        }
      }
      const bool can_on = next.count(1) != 0;
      const bool can_off = next.count(0) != 0;
      MarkOutcome(d, 0, can_on, reach,
                  StrFormat("input %s keeps the relay off", u.v.iv.ToString().c_str()));
      MarkOutcome(d, 1, can_off, reach,
                  StrFormat("input %s keeps the relay on", u.v.iv.ToString().c_str()));
      if (reach == 1 && (can_on != can_off)) {
        MarkTrivial(spec_.OutcomeSlot(d, can_on ? 0 : 1), "relay state is constant");
      }
      Interval iv;
      if (can_on) iv = iv.Union(Interval::Point(b.params().GetDouble("on_value", 1.0)));
      if (can_off) iv = iv.Union(Interval::Point(b.params().GetDouble("off_value", 0.0)));
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(iv, false, DType::kDouble);
      for (int s : next) AddIState(st, s);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kRelationalOp:
    case BlockKind::kCompareToConstant:
    case BlockKind::kCompareToZero: {
      const std::string op = b.params().GetString("op", "lt");
      const AV a = In(sys, b, 0);
      AV c;
      if (b.kind() == BlockKind::kRelationalOp) {
        c = In(sys, b, 1);
        if (c.v.iv.lo() == c.v.iv.hi()) Harvest(a, c.v.iv.lo());
        if (a.v.iv.lo() == a.v.iv.hi()) Harvest(c, a.v.iv.lo());
      } else if (b.kind() == BlockKind::kCompareToConstant) {
        const double v = b.params().GetDouble("value", 0.0);
        if (ir::DTypeIsFloat(a.v.type) || !ir::DTypeHolds(a.v.type, v)) {
          c.v = AbsVal::Point(v);
        } else {
          c.v = AbsVal::Point(v, a.v.type);
        }
        Harvest(a, v);
      } else {
        c.v = ir::DTypeIsFloat(a.v.type) ? AbsVal::Point(0.0) : AbsVal::Point(0, a.v.type);
        c.v.type = a.v.type;
        Harvest(a, 0.0);
      }
      const int tri = ARelate(a, c, op);
      auto cit = sm_.condition_sites.find({&b, 0});
      if (cit != sm_.condition_sites.end()) {
        MarkCondTri(cit->second, tri, reach,
                    StrFormat("input %s vs %s", a.v.iv.ToString().c_str(),
                              c.v.iv.ToString().c_str()));
      }
      AV y = MakeB(tri, a.deps);
      y.deps.insert(c.deps.begin(), c.deps.end());
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kLogicalAnd:
    case BlockKind::kLogicalOr:
    case BlockKind::kLogicalXor:
    case BlockKind::kLogicalNand:
    case BlockKind::kLogicalNor: {
      const int n = b.num_inputs();
      const auto d = sm_.DecisionAt(&b, 0);
      int acc = 0;
      std::set<int> deps;
      for (int k = 0; k < n; ++k) {
        const AV vk = In(sys, b, k);
        deps.insert(vk.deps.begin(), vk.deps.end());
        const int tk = ABool(vk);
        auto cit = sm_.condition_sites.find({&b, k + 1});
        if (cit != sm_.condition_sites.end()) {
          MarkCondTri(cit->second, tk, reach,
                      StrFormat("input %d range %s", k, vk.v.iv.ToString().c_str()));
        }
        if (k == 0) {
          acc = tk;
          continue;
        }
        switch (b.kind()) {
          case BlockKind::kLogicalOr:
          case BlockKind::kLogicalNor:
            acc = (acc == 1 || tk == 1) ? 1 : (acc == 0 && tk == 0) ? 0 : -1;
            break;
          case BlockKind::kLogicalXor:
            acc = (acc == -1 || tk == -1) ? -1 : (acc != tk ? 1 : 0);
            break;
          default:  // and / nand
            acc = (acc == 0 || tk == 0) ? 0 : (acc == 1 && tk == 1) ? 1 : -1;
            break;
        }
      }
      if (b.kind() == BlockKind::kLogicalNand || b.kind() == BlockKind::kLogicalNor) {
        acc = Not(acc);
      }
      MarkOutcomes2(d, acc, reach, "the combined logic output is never true",
                    "the combined logic output is never false", "logic output is constant");
      Set(sys, b.id(), 0, MakeB(acc, std::move(deps)));
      return;
    }
    case BlockKind::kLogicalNot: {
      const AV u = In(sys, b, 0);
      Set(sys, b.id(), 0, MakeB(Not(ABool(u)), u.deps));
      return;
    }
    case BlockKind::kBitwiseAnd:
    case BlockKind::kBitwiseOr:
    case BlockKind::kBitwiseXor: {
      const DType t = b.out_type(0);
      const AV a = ACast(In(sys, b, 0), t);
      const AV c = ACast(In(sys, b, 1), t);
      std::set<int> deps = a.deps;
      deps.insert(c.deps.begin(), c.deps.end());
      if (a.v.iv.lo() == a.v.iv.hi() && c.v.iv.lo() == c.v.iv.hi() && FinB(a.v.iv.lo()) &&
          FinB(c.v.iv.lo())) {
        const std::int64_t x = num::TruncToI64(a.v.iv.lo());
        const std::int64_t y = num::TruncToI64(c.v.iv.lo());
        std::int64_t r = x & y;
        if (b.kind() == BlockKind::kBitwiseOr) r = x | y;
        if (b.kind() == BlockKind::kBitwiseXor) r = x ^ y;
        Set(sys, b.id(), 0, MakeI(Interval::Point(static_cast<double>(r)), t, std::move(deps)));
      } else {
        Set(sys, b.id(), 0, MakeI(Interval::Whole(), t, std::move(deps)));
      }
      return;
    }
    case BlockKind::kShiftLeft:
    case BlockKind::kShiftRight: {
      const DType t = b.out_type(0);
      const AV a = ACast(In(sys, b, 0), t);
      const int bits = static_cast<int>(b.params().GetInt("bits", 1)) & 63;
      const double p = std::pow(2.0, bits);
      Interval iv;
      if (b.kind() == BlockKind::kShiftLeft) {
        iv = a.v.iv.Mul(Interval::Point(p));  // wrap handled by MakeI
      } else if (!a.v.iv.empty()) {
        iv = Interval(std::floor(a.v.iv.lo() / p), std::floor(a.v.iv.hi() / p));
      }
      Set(sys, b.id(), 0, MakeI(iv, t, a.deps));
      return;
    }
    case BlockKind::kSwitch: {
      const DType t = b.out_type(0);
      const AV ctrl = In(sys, b, 1);
      const std::string criteria = b.params().GetString("criteria", "ge");
      const auto d = sm_.DecisionAt(&b, 0);
      int tri;
      if (criteria == "ne") {
        tri = ABool(ctrl);
      } else {
        const double thr = b.params().GetDouble("threshold", 0.0);
        AV th;
        if (ir::DTypeIsFloat(ctrl.v.type) || !ir::DTypeHolds(ctrl.v.type, thr)) {
          th.v = AbsVal::Point(thr);
        } else {
          th.v = AbsVal::Point(thr, ctrl.v.type);
        }
        Harvest(ctrl, thr);
        tri = ARelate(ctrl, th, criteria);
      }
      MarkOutcomes2(
          d, tri, reach,
          StrFormat("control %s never satisfies the switch criteria", ctrl.v.iv.ToString().c_str()),
          StrFormat("control %s always satisfies the switch criteria",
                    ctrl.v.iv.ToString().c_str()),
          StrFormat("switch control %s is constant", ctrl.v.iv.ToString().c_str()));
      if (reach != 0 && tri != -1) {
        Lint(&b, LintSeverity::kWarning, "constant-switch", bpath,
             StrFormat("control range %s makes the switch always take the %s input",
                       ctrl.v.iv.ToString().c_str(), tri == 1 ? "first" : "third"));
      }
      AV y;
      bool first = true;
      if (tri != 0) {
        y = ACast(In(sys, b, 0), t);
        first = false;
      }
      if (tri != 1) {
        AV e = ACast(In(sys, b, 2), t);
        y = first ? e : AUnion(y, e);
      }
      y.deps.insert(ctrl.deps.begin(), ctrl.deps.end());
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kMultiportSwitch: {
      const DType t = b.out_type(0);
      const int cases = static_cast<int>(b.params().GetInt("cases", 2));
      const auto d = sm_.DecisionAt(&b, 0);
      const AV idx = ACast(In(sys, b, 0), DType::kInt32);
      for (int k = 0; k < cases - 1; ++k) Harvest(idx, k + 1);
      AV y;
      bool first = true;
      int feas = 0;
      for (int k = 0; k < cases - 1; ++k) {
        const bool can = idx.v.iv.Contains(k + 1);
        MarkOutcome(d, k, can, reach,
                    StrFormat("selector %s never equals %d", idx.v.iv.ToString().c_str(), k + 1));
        if (can) {
          ++feas;
          AV e = ACast(In(sys, b, 1 + k), t);
          y = first ? e : AUnion(y, e);
          first = false;
        }
      }
      const bool can_def = idx.v.iv.empty() || idx.v.iv.lo() <= 0 ||
                           idx.v.iv.hi() >= static_cast<double>(cases);
      MarkOutcome(d, cases - 1, can_def, reach,
                  StrFormat("selector %s always matches an explicit case",
                            idx.v.iv.ToString().c_str()));
      if (can_def) {
        ++feas;
        AV e = ACast(In(sys, b, cases), t);
        y = first ? e : AUnion(y, e);
        first = false;
      }
      if (reach == 1 && feas == 1) {
        for (int k = 0; k < cases; ++k) {
          const bool can = k < cases - 1 ? idx.v.iv.Contains(k + 1) : can_def;
          if (can) MarkTrivial(spec_.OutcomeSlot(d, k), "multiport selector is constant");
        }
      }
      y.deps.insert(idx.deps.begin(), idx.deps.end());
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kMerge: {
      const DType t = b.out_type(0);
      const int n = b.num_inputs();
      AV y;
      bool first = true;
      int chain = 1;
      for (int k = 0; k < n - 1 && chain != 0; ++k) {
        const int tk = ABool(In(sys, b, k));
        if (tk != 0) {
          AV e = ACast(In(sys, b, k), t);
          y = first ? e : AUnion(y, e);
          first = false;
        }
        chain = CombineReach(chain, Not(tk));
      }
      if (chain != 0) {
        AV e = ACast(In(sys, b, n - 1), t);
        y = first ? e : AUnion(y, e);
      }
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kUnitDelay:
    case BlockKind::kMemory: {
      BState& st = state_[&b];
      const DType t = b.out_type(0);
      if (!st.init) InitNumericState(b, st, t, b.params().GetDouble("init", 0.0));
      Set(sys, b.id(), 0, st.outs[0]);
      return;
    }
    case BlockKind::kDelay: {
      BState& st = state_[&b];
      const DType t = b.out_type(0);
      if (!st.init) InitNumericState(b, st, t, b.params().GetDouble("init", 0.0));
      Set(sys, b.id(), 0, st.outs[0]);  // hull of the whole delay line
      return;
    }
    case BlockKind::kDiscreteIntegrator: {
      BState& st = state_[&b];
      if (!st.init) InitNumericState(b, st, DType::kDouble, b.params().GetDouble("init", 0.0));
      Set(sys, b.id(), 0, st.outs[0]);
      return;
    }
    case BlockKind::kCounterLimited: {
      BState& st = state_[&b];
      const DType t = b.out_type(0);
      if (!st.init) InitNumericState(b, st, t, b.params().GetDouble("init", 0.0));
      const auto d = sm_.DecisionAt(&b, 0);
      const AV en = In(sys, b, 0);
      const int tri_en = ABool(en);
      const int reach_c = CombineReach(reach, tri_en);
      const auto limit = static_cast<double>(b.params().GetInt("limit", 10));
      const Interval stv = st.outs[0].v.iv;
      const Interval wrap_part = stv.RefineGe(Interval::Point(limit));
      const Interval inc_part = stv.RefineLt(Interval::Point(limit)).Add(Interval::Point(1));
      MarkOutcome(d, 0, !wrap_part.empty(), reach_c,
                  StrFormat("counter %s never reaches the limit %g", stv.ToString().c_str(),
                            limit));
      MarkOutcome(d, 1, !inc_part.empty(), reach_c,
                  StrFormat("counter %s is always at the limit %g", stv.ToString().c_str(),
                            limit));
      Interval nxt;
      if (tri_en != 1) nxt = nxt.Union(stv);
      if (tri_en != 0) {
        if (!wrap_part.empty()) nxt = nxt.Union(Interval::Point(0));
        if (!inc_part.empty()) nxt = nxt.Union(inc_part);
      }
      if (nxt.empty()) nxt = stv;
      AV y = MakeI(nxt, t, st.outs[0].deps);
      y.deps.insert(en.deps.begin(), en.deps.end());
      MergeAV(st.outs[0], y);
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kEdgeDetector: {
      BState& st = state_[&b];
      if (!st.init) {
        st.init = true;
        changed_ = true;
        st.istates.insert(0);
      }
      const std::string edge = b.params().GetString("edge", "rising");
      const AV uav = In(sys, b, 0);
      const int tri_u = ABool(uav);
      bool can_out_true = false;
      bool can_out_false = false;
      for (int prev = 0; prev <= 1; ++prev) {
        if (st.istates.count(prev) == 0) continue;
        for (int u = 0; u <= 1; ++u) {
          if (u == 1 && tri_u == 0) continue;
          if (u == 0 && tri_u == 1) continue;
          bool out;
          if (edge == "falling") {
            out = u == 0 && prev == 1;
          } else if (edge == "either") {
            out = u != prev;
          } else {
            out = u == 1 && prev == 0;
          }
          (out ? can_out_true : can_out_false) = true;
        }
      }
      const auto d = sm_.DecisionAt(&b, 0);
      const int tri_out = can_out_true ? (can_out_false ? -1 : 1) : 0;
      MarkOutcomes2(d, tri_out, reach, "no edge of the configured polarity can occur",
                    "an edge of the configured polarity always occurs", "edge output is constant");
      auto cit = sm_.condition_sites.find({&b, 1});
      if (cit != sm_.condition_sites.end()) {
        MarkCondTri(cit->second, tri_out, reach, "edge-detector output");
      }
      if (tri_u != 0) AddIState(st, 1);
      if (tri_u != 1) AddIState(st, 0);
      Set(sys, b.id(), 0, MakeB(tri_out, uav.deps));
      return;
    }
    case BlockKind::kLookup1D: {
      const auto bp = b.params().GetList("breakpoints");
      const auto tb = b.params().GetList("table");
      const AV u = AsDouble(In(sys, b, 0));
      for (double v : bp) Harvest(u, v);
      double lo = 0;
      double hi = 0;
      if (!tb.empty()) {
        lo = *std::min_element(tb.begin(), tb.end());
        hi = *std::max_element(tb.begin(), tb.end());
      }
      AV y;
      y.deps = u.deps;
      y.v = AbsVal(Interval(lo, hi), false, DType::kDouble);  // NaN input maps to table end
      Set(sys, b.id(), 0, std::move(y));
      return;
    }
    case BlockKind::kDataTypeConversion: {
      const AV u = In(sys, b, 0);
      const DType t = b.out_type(0);
      if (reach != 0 && !ir::DTypeIsFloat(t)) {
        const Interval r = TypeRange(t);
        if (u.v.maybe_nan || u.v.iv.empty() || u.v.iv.lo() < r.lo() || u.v.iv.hi() > r.hi()) {
          Lint(&b, LintSeverity::kWarning, "narrowing-conversion", bpath,
               StrFormat("input range %s does not fit the %s range %s; values wrap",
                         u.v.iv.ToString().c_str(), std::string(ir::DTypeName(t)).c_str(),
                         r.ToString().c_str()));
        }
      }
      Set(sys, b.id(), 0, ACast(u, t));
      return;
    }
    case BlockKind::kSubsystem: {
      const Model& sub = *b.subs()[0];
      SeedSub(sys, b, sub, 0);
      ExecSystem(sub, reach, bpath);
      std::vector<AV> outs(static_cast<std::size_t>(b.num_outputs()));
      bool first = true;
      AccumulateSubOutputs(b, sub, outs, first);
      for (int k = 0; k < b.num_outputs(); ++k) {
        Set(sys, b.id(), k, std::move(outs[static_cast<std::size_t>(k)]));
      }
      return;
    }
    case BlockKind::kActionIf: {
      const auto d = sm_.DecisionAt(&b, 0);
      const AV cond = In(sys, b, 0);
      const int tri = ABool(cond);
      MarkOutcomes2(d, tri, reach,
                    StrFormat("condition %s is never true", cond.v.iv.ToString().c_str()),
                    StrFormat("condition %s is never false", cond.v.iv.ToString().c_str()),
                    "if-action branch is constant");
      if (reach != 0 && tri != -1) {
        Lint(&b, LintSeverity::kWarning, "constant-branch", bpath,
             StrFormat("condition range %s always selects the %s action",
                       cond.v.iv.ToString().c_str(), tri == 1 ? "then" : "else"));
      }
      std::vector<AV> outs(static_cast<std::size_t>(b.num_outputs()));
      bool first = true;
      if (tri != 0) {
        const Model& sub = *b.subs()[0];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub, CombineReach(reach, tri), bpath);
        AccumulateSubOutputs(b, sub, outs, first);
      }
      if (tri != 1) {
        const Model& sub = *b.subs()[1];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub, CombineReach(reach, Not(tri)), bpath);
        AccumulateSubOutputs(b, sub, outs, first);
      }
      for (int k = 0; k < b.num_outputs(); ++k) {
        Set(sys, b.id(), k, std::move(outs[static_cast<std::size_t>(k)]));
      }
      return;
    }
    case BlockKind::kActionSwitch: {
      const auto d = sm_.DecisionAt(&b, 0);
      const int n_subs = static_cast<int>(b.subs().size());
      const AV idx = ACast(In(sys, b, 0), DType::kInt32);
      for (int k = 0; k < n_subs - 1; ++k) Harvest(idx, k + 1);
      std::vector<AV> outs(static_cast<std::size_t>(b.num_outputs()));
      bool first = true;
      int feas = 0;
      for (int k = 0; k < n_subs - 1; ++k) {
        const bool can = idx.v.iv.Contains(k + 1);
        MarkOutcome(d, k, can, reach,
                    StrFormat("selector %s never equals %d", idx.v.iv.ToString().c_str(), k + 1));
        if (!can) continue;
        ++feas;
        const Model& sub = *b.subs()[static_cast<std::size_t>(k)];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub, CombineReach(reach, -1), bpath);
        AccumulateSubOutputs(b, sub, outs, first);
      }
      const bool can_def = idx.v.iv.empty() || idx.v.iv.lo() <= 0 ||
                           idx.v.iv.hi() >= static_cast<double>(n_subs);
      MarkOutcome(d, n_subs - 1, can_def, reach,
                  StrFormat("selector %s always matches an explicit case",
                            idx.v.iv.ToString().c_str()));
      if (can_def) {
        ++feas;
        const Model& sub = *b.subs()[static_cast<std::size_t>(n_subs - 1)];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub, CombineReach(reach, -1), bpath);
        AccumulateSubOutputs(b, sub, outs, first);
      }
      if (reach == 1 && feas == 1) {
        for (int k = 0; k < n_subs; ++k) {
          const bool can = k < n_subs - 1 ? idx.v.iv.Contains(k + 1) : can_def;
          if (can) MarkTrivial(spec_.OutcomeSlot(d, k), "action selector is constant");
        }
      }
      for (int k = 0; k < b.num_outputs(); ++k) {
        Set(sys, b.id(), k, std::move(outs[static_cast<std::size_t>(k)]));
      }
      return;
    }
    case BlockKind::kEnabledSubsystem: {
      const auto d = sm_.DecisionAt(&b, 0);
      BState& st = state_[&b];
      if (!st.init) {
        st.init = true;
        changed_ = true;
        AV init;
        init.v = AbsVal::Point(b.params().GetDouble("init", 0.0));
        st.outs.assign(static_cast<std::size_t>(b.num_outputs()), init);
      }
      const AV en = In(sys, b, 0);
      const int tri = ABool(en);
      MarkOutcomes2(d, tri, reach,
                    StrFormat("enable input %s is never true", en.v.iv.ToString().c_str()),
                    StrFormat("enable input %s is never false", en.v.iv.ToString().c_str()),
                    "enable input is constant");
      if (tri != 0) {
        const Model& sub = *b.subs()[0];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub, CombineReach(reach, tri), bpath);
        const auto outports = sub.Outports();
        for (std::size_t k = 0; k < outports.size() && k < st.outs.size(); ++k) {
          const ir::Wire* w = sub.DriverOf(outports[k], 0);
          if (w == nullptr) continue;
          AV v = ACast(Get(sub, w->src.block, w->src.port), b.out_type(static_cast<int>(k)));
          MergeAV(st.outs[k], AsDouble(v));
        }
      }
      for (int k = 0; k < b.num_outputs(); ++k) {
        Set(sys, b.id(), k, ACast(st.outs[static_cast<std::size_t>(k)], b.out_type(k)));
      }
      return;
    }
    case BlockKind::kChart:
      return ExecChart(sys, b, reach, bpath);
    case BlockKind::kExprFunc:
      return ExecExprFunc(sys, b, reach, bpath);
  }
}

// -- mex abstract evaluation --------------------------------------------------

AV AbstractExec::AEvalExpr(const Expr& e, Env& env) {
  switch (e.kind) {
    case ExprKind::kNumber: {
      AV x;
      x.v = AbsVal::Point(e.number);
      return x;
    }
    case ExprKind::kVar: {
      auto it = env.find(e.name);
      if (it != env.end()) return it->second;
      AV x;
      x.v = AbsVal::Top();
      return x;
    }
    case ExprKind::kUnary: {
      if (e.op == "!") return MakeB(Not(AEvalBool(*e.args[0], env)), {});
      AV u = AEvalExpr(*e.args[0], env);
      u.v.iv = u.v.iv.Neg();
      return u;
    }
    case ExprKind::kBinary: {
      if (blocks::mex::IsBooleanOp(e.op)) return MakeB(AEvalBool(e, env), {});
      const AV a = AEvalExpr(*e.args[0], env);
      const AV c = AEvalExpr(*e.args[1], env);
      if (e.op == "+") return AAdd(a, c);
      if (e.op == "-") return ASub(a, c);
      if (e.op == "*") return AMul(a, c);
      if (e.op == "/") {
        if (c.v.iv.Contains(0.0)) {
          Lint(&e, LintSeverity::kWarning, "possible-division-by-zero", cur_mex_path_,
               StrFormat("divisor of '%s' has range %s which contains zero",
                         blocks::mex::ExprToString(e).c_str(), c.v.iv.ToString().c_str()));
        }
        return ASafeDiv(a, c);
      }
      return ASafeMod(a, c);
    }
    case ExprKind::kCall: {
      auto arg = [&](std::size_t k) { return AEvalExpr(*e.args[k], env); };
      AV y;
      if (e.name == "abs") {
        AV a = arg(0);
        a.v.iv = a.v.iv.Abs();
        return a;
      }
      if (e.name == "min" || e.name == "max") return AFMinMax(arg(0), arg(1), e.name == "min");
      if (e.name == "floor" || e.name == "ceil" || e.name == "round") {
        AV a = arg(0);
        auto f = [&](double v) {
          if (e.name == "floor") return std::floor(v);
          if (e.name == "ceil") return std::ceil(v);
          return std::nearbyint(v);
        };
        if (!a.v.iv.empty()) a.v.iv = Interval(f(a.v.iv.lo()), f(a.v.iv.hi()));
        return a;
      }
      if (e.name == "sqrt") {
        AV a = arg(0);
        auto s = [](double v) { return v < 0 ? 0.0 : std::sqrt(v); };
        if (!a.v.iv.empty()) a.v.iv = Interval(s(a.v.iv.lo()), s(a.v.iv.hi()));
        return a;
      }
      if (e.name == "exp") {
        const AV a = arg(0);
        const double elo = a.v.iv.empty() ? 0 : std::exp(a.v.iv.lo());
        const double ehi = a.v.iv.empty() ? 0 : std::exp(a.v.iv.hi());
        Interval iv(std::isfinite(elo) ? elo : Interval::kInf,
                    std::isfinite(ehi) ? ehi : Interval::kInf);
        if (!std::isfinite(ehi) || a.v.maybe_nan || UnbHi(a.v.iv)) {
          iv = iv.Union(Interval::Point(0));
        }
        y.v = AbsVal(iv, false);
        y.deps = a.deps;
        return y;
      }
      if (e.name == "log") {
        const AV a = arg(0);
        Interval iv;
        if (!a.v.iv.empty() && a.v.iv.hi() > 0) {
          const double lo = a.v.iv.lo() <= 0 ? -Interval::kInf : std::log(a.v.iv.lo());
          iv = Interval(lo, std::min(std::log(a.v.iv.hi()), Interval::kInf));
        }
        if (a.v.iv.empty() || a.v.iv.lo() <= 0) iv = iv.Union(Interval::Point(0));
        y.v = AbsVal(iv, a.v.maybe_nan);
        y.deps = a.deps;
        return y;
      }
      if (e.name == "sin" || e.name == "cos") {
        const AV a = arg(0);
        y.v = AbsVal(Interval(-1, 1), a.v.maybe_nan || Unb(a.v.iv));
        y.deps = a.deps;
        return y;
      }
      if (e.name == "tan") {
        const AV a = arg(0);
        y.v = AbsVal(Interval::Whole(), false);
        y.deps = a.deps;
        return y;
      }
      if (e.name == "atan2") {
        const AV a = arg(0);
        const AV c = arg(1);
        y.v = AbsVal(Interval(-3.14159265358979323846, 3.14159265358979323846),
                     a.v.maybe_nan || c.v.maybe_nan);
        y.deps = a.deps;
        y.deps.insert(c.deps.begin(), c.deps.end());
        return y;
      }
      if (e.name == "pow") {
        const AV a = arg(0);
        const AV c = arg(1);
        y.v = AbsVal(Interval::Whole(), false);
        y.deps = a.deps;
        y.deps.insert(c.deps.begin(), c.deps.end());
        return y;
      }
      if (e.name == "mod" || e.name == "rem") return ASafeMod(arg(0), arg(1));
      if (e.name == "sign") {
        const AV a = arg(0);
        y.v = AbsVal(Interval(-1, 1), false);
        y.deps = a.deps;
        return y;
      }
      y.v = AbsVal::Point(0);
      return y;  // unknown function: interpreter returns 0.0
    }
  }
  AV x;
  x.v = AbsVal::Top();
  return x;
}

int AbstractExec::AEvalBool(const Expr& e, Env& env) {
  if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
    const int lhs = AEvalBool(*e.args[0], env);
    if (e.op == "&&") {
      if (lhs == 0) return 0;
      const int rhs = AEvalBool(*e.args[1], env);
      return lhs == 1 ? rhs : (rhs == 0 ? 0 : -1);
    }
    if (lhs == 1) return 1;
    const int rhs = AEvalBool(*e.args[1], env);
    return lhs == 0 ? rhs : (rhs == 1 ? 1 : -1);
  }
  if (e.kind == ExprKind::kUnary && e.op == "!") return Not(AEvalBool(*e.args[0], env));
  if (e.kind == ExprKind::kBinary && blocks::mex::IsBooleanOp(e.op)) {
    const AV a = AEvalExpr(*e.args[0], env);
    const AV c = AEvalExpr(*e.args[1], env);
    if (c.v.iv.lo() == c.v.iv.hi()) Harvest(a, c.v.iv.lo());
    if (a.v.iv.lo() == a.v.iv.hi()) Harvest(c, a.v.iv.lo());
    return ARelate(a, c, e.op);
  }
  return ABool(AEvalExpr(e, env));
}

int AbstractExec::AEvalCond(const Expr& e, Env& env, const std::map<const Expr*, int>& bit_of,
                            int reach) {
  if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
    const int lhs = AEvalCond(*e.args[0], env, bit_of, reach);
    if (e.op == "&&") {
      const int rhs = AEvalCond(*e.args[1], env, bit_of, CombineReach(reach, lhs));
      return lhs == 0 ? 0 : (lhs == 1 ? rhs : (rhs == 0 ? 0 : -1));
    }
    const int rhs = AEvalCond(*e.args[1], env, bit_of, CombineReach(reach, Not(lhs)));
    return lhs == 1 ? 1 : (lhs == 0 ? rhs : (rhs == 1 ? 1 : -1));
  }
  if (e.kind == ExprKind::kUnary && e.op == "!") {
    return Not(AEvalCond(*e.args[0], env, bit_of, reach));
  }
  const int v = AEvalBool(e, env);
  auto it = bit_of.find(&e);
  if (it != bit_of.end() && it->second < 24) {
    auto cit = sm_.condition_sites.find({&e, 0});
    if (cit != sm_.condition_sites.end()) {
      MarkCondTri(cit->second, v, reach, blocks::mex::ExprToString(e));
    }
  }
  return v;
}

int AbstractExec::AEvalDecisionExpr(const Expr& cond, Env& env, coverage::DecisionId d,
                                    int reach) {
  (void)d;
  std::map<const Expr*, int> bit_of;
  std::vector<const Expr*> leaves;
  blocks::mex::CollectConditionLeaves(cond, leaves);
  for (std::size_t k = 0; k < leaves.size(); ++k) bit_of[leaves[k]] = static_cast<int>(k);
  return AEvalCond(cond, env, bit_of, reach);
}

void AbstractExec::AEvalStmts(const std::vector<blocks::mex::StmtPtr>& stmts, Env& env,
                              int reach) {
  for (const auto& s : stmts) AEvalStmt(*s, env, reach);
}

void AbstractExec::AEvalStmt(const Stmt& stmt, Env& env, int reach) {
  if (stmt.kind == StmtKind::kAssign) {
    env[stmt.target] = AEvalExpr(*stmt.value, env);
    return;
  }
  std::vector<Env> exits;
  int chain = reach;
  bool had_else = false;
  for (std::size_t arm = 0; arm < stmt.branches.size(); ++arm) {
    const IfBranch& br = stmt.branches[arm];
    if (chain == 0) break;  // unvisited arms keep the generic "never evaluated" reason
    if (!br.cond) {
      had_else = true;
      Env body = env;
      AEvalStmts(br.body, body, chain);
      exits.push_back(std::move(body));
      chain = 0;
      break;
    }
    const auto d = sm_.DecisionAt(&stmt, static_cast<int>(arm));
    const int tri = AEvalDecisionExpr(*br.cond, env, d, chain);
    MarkOutcomes2(d, tri, chain,
                  StrFormat("guard '%s' is never true", blocks::mex::ExprToString(*br.cond).c_str()),
                  StrFormat("guard '%s' is never false",
                            blocks::mex::ExprToString(*br.cond).c_str()),
                  "guard is constant");
    if (tri != 0) {
      Env body = env;
      AEvalStmts(br.body, body, CombineReach(chain, tri));
      exits.push_back(std::move(body));
    }
    chain = CombineReach(chain, Not(tri));
  }
  if (chain != 0 && !had_else) exits.push_back(env);  // fallthrough: no arm taken
  if (!exits.empty()) env = MergeEnvs(exits);
}

void AbstractExec::ExecExprFunc(const Model& sys, const Block& b, int reach,
                                const std::string& path) {
  const auto* compiled = sm_.analysis.programs.FindExprFunc(&b);
  if (compiled == nullptr) return;
  cur_mex_path_ = path;
  Env env;
  for (std::size_t k = 0; k < compiled->in_names.size(); ++k) {
    env[compiled->in_names[k]] = AsDouble(In(sys, b, static_cast<int>(k)));
  }
  AV zero;
  zero.v = AbsVal::Point(0);
  for (const auto& name : compiled->out_names) env[name] = zero;
  for (const auto& name : compiled->local_names) env[name] = zero;
  AEvalStmts(compiled->program.stmts, env, reach);
  for (std::size_t k = 0; k < compiled->out_names.size(); ++k) {
    Set(sys, b.id(), static_cast<int>(k),
        ACast(env[compiled->out_names[k]], b.out_type(static_cast<int>(k))));
  }
}

void AbstractExec::ExecChart(const Model& sys, const Block& b, int reach,
                             const std::string& path) {
  const auto* compiled = sm_.analysis.programs.FindChart(&b);
  if (compiled == nullptr) return;
  const ir::ChartDef& def = *b.chart();
  cur_mex_path_ = path;
  BState& st = state_[&b];
  if (!st.init) {
    st.init = true;
    changed_ = true;
    st.istates.insert(def.initial_state);
    for (const auto& v : def.vars) {
      AV x;
      x.v = AbsVal::Point(v.init);
      st.vars[v.name] = x;
    }
    for (const auto& o : def.outputs) {
      AV x;
      x.v = AbsVal::Point(o.init);
      st.vars[o.name] = x;
    }
  }
  Env inenv;
  for (std::size_t k = 0; k < def.inputs.size(); ++k) {
    inenv[def.inputs[k]] = AsDouble(In(sys, b, static_cast<int>(k)));
  }
  const std::set<int> states_now = st.istates;
  // With more than one abstractly-active state, a given state is only *maybe*
  // active this step, so everything below it is maybe-reachable at best.
  const int sreach = states_now.size() > 1 ? CombineReach(reach, -1) : reach;
  std::set<int> new_states;
  std::vector<Env> exits;
  for (int s : states_now) {
    Env env = inenv;
    for (const auto& [name, v] : st.vars) env[name] = v;
    int chain = sreach;
    const auto& sc = compiled->states[static_cast<std::size_t>(s)];
    for (int t : compiled->outgoing[static_cast<std::size_t>(s)]) {
      if (chain == 0) break;
      const auto& ct = compiled->transitions[static_cast<std::size_t>(t)];
      const ir::ChartTransition& dt = def.transitions[static_cast<std::size_t>(t)];
      const auto d = sm_.DecisionAt(&b, 1000 + t);
      int tri;
      if (!ct.guard) {
        tri = 1;
        MarkOutcome(d, 0, true, chain, "");
        MarkOutcome(d, 1, false, chain,
                    "transition is unconditional; it always fires when evaluated");
        if (chain == 1) {
          MarkTrivial(spec_.OutcomeSlot(d, 0), "transition is unconditional");
        }
      } else {
        tri = AEvalDecisionExpr(*ct.guard->expr, env, d, chain);
        MarkOutcomes2(d, tri, chain,
                      StrFormat("guard from state '%s' is never true",
                                def.states[static_cast<std::size_t>(s)].name.c_str()),
                      StrFormat("guard from state '%s' is never false",
                                def.states[static_cast<std::size_t>(s)].name.c_str()),
                      "transition guard is constant");
      }
      if (tri != 0) {
        Env e = env;
        const int r2 = CombineReach(chain, tri);
        if (sc.exit) AEvalStmts(sc.exit->stmts, e, r2);
        if (ct.action) AEvalStmts(ct.action->stmts, e, r2);
        const auto dest = static_cast<std::size_t>(dt.to);
        if (compiled->states[dest].entry) {
          AEvalStmts(compiled->states[dest].entry->stmts, e, r2);
        }
        new_states.insert(dt.to);
        exits.push_back(std::move(e));
      }
      chain = CombineReach(chain, Not(tri));
    }
    if (chain != 0) {  // no transition fired: during action, state persists
      Env e = env;
      if (sc.during) AEvalStmts(sc.during->stmts, e, chain);
      new_states.insert(s);
      exits.push_back(std::move(e));
    }
  }
  for (auto& e : exits) {
    for (auto& [name, v] : st.vars) {
      auto it = e.find(name);
      if (it != e.end()) MergeAV(v, it->second);
    }
  }
  for (int s : new_states) AddIState(st, s);
  for (std::size_t k = 0; k < def.outputs.size(); ++k) {
    auto it = st.vars.find(def.outputs[k].name);
    AV v;
    if (it != st.vars.end()) v = it->second;
    Set(sys, b.id(), static_cast<int>(k), ACast(v, def.outputs[k].type));
  }
}

// -- lints and finalization ---------------------------------------------------

void AbstractExec::StaticLints(const Model& sys, const std::string& path,
                               std::vector<LintDiagnostic>& out) {
  std::set<std::pair<ir::BlockId, int>> used;
  for (const auto& w : sys.wires()) used.insert({w.src.block, w.src.port});
  for (const auto& b : sys.blocks()) {
    const std::string bpath = path + "/" + b.name();
    for (int k = 0; k < b.num_inputs(); ++k) {
      if (sys.DriverOf(b.id(), k) == nullptr) {
        out.push_back({LintSeverity::kError, "unconnected-input", bpath,
                       StrFormat("input port %d has no driving wire", k)});
      }
    }
    if (b.num_outputs() > 0 && b.kind() != BlockKind::kOutport) {
      bool any_used = false;
      for (int k = 0; k < b.num_outputs() && !any_used; ++k) {
        any_used = used.count({b.id(), k}) != 0;
      }
      if (!any_used) {
        out.push_back({LintSeverity::kWarning, "dead-block", bpath,
                       "no output of this block is connected; it has no effect"});
      }
    }
    for (const auto& sub : b.subs()) StaticLints(*sub, bpath, out);
  }
}

void AbstractExec::Finalize(ModelAnalysis& res) {
  auto& just = res.justifications;
  const int n = spec_.FuzzBranchCount();
  for (int slot = 0; slot < n; ++slot) {
    if (feasible_[static_cast<std::size_t>(slot)] != 0) continue;
    std::string reason = dead_reason_[static_cast<std::size_t>(slot)];
    if (reason.empty()) {
      reason = visited_[static_cast<std::size_t>(slot)] != 0
                   ? "objective is infeasible on every evaluation path"
                   : "never evaluated: the enclosing context is unreachable";
    }
    just.JustifySlot(slot, coverage::ObjectiveVerdict::kProvedUnreachable, reason);
  }
  for (const auto& dec : spec_.decisions()) {
    int n_feas = 0;
    int feas_outcome = -1;
    for (int o = 0; o < dec.num_outcomes; ++o) {
      if (feasible_[static_cast<std::size_t>(spec_.OutcomeSlot(dec.id, o))] != 0) {
        ++n_feas;
        feas_outcome = o;
      }
    }
    if (n_feas == 1) {
      const int slot = spec_.OutcomeSlot(dec.id, feas_outcome);
      const std::string& why = trivial_reason_[static_cast<std::size_t>(slot)];
      if (!why.empty()) {
        just.JustifySlot(slot, coverage::ObjectiveVerdict::kTriviallyConstant, why);
      }
    }
    // MCDC: a condition cannot demonstrate independent influence when the
    // decision has fewer than two feasible outcomes.
    if (n_feas < 2) {
      for (coverage::ConditionId c : dec.conditions) {
        just.JustifyMcdc(c, coverage::ObjectiveVerdict::kProvedUnreachable,
                         StrFormat("decision '%s' has a single feasible outcome",
                                   dec.name.c_str()));
      }
    }
  }
  for (const auto& cond : spec_.conditions()) {
    const int ts = spec_.ConditionTrueSlot(cond.id);
    const int fs = spec_.ConditionFalseSlot(cond.id);
    const bool can_t = feasible_[static_cast<std::size_t>(ts)] != 0;
    const bool can_f = feasible_[static_cast<std::size_t>(fs)] != 0;
    if (can_t != can_f) {
      const int slot = can_t ? ts : fs;
      const std::string& why = trivial_reason_[static_cast<std::size_t>(slot)];
      if (!why.empty()) {
        just.JustifySlot(slot, coverage::ObjectiveVerdict::kTriviallyConstant, why);
      }
    }
    if (just.McdcVerdict(cond.id) == coverage::ObjectiveVerdict::kUnknown && (!can_t || !can_f)) {
      just.JustifyMcdc(cond.id, coverage::ObjectiveVerdict::kProvedUnreachable,
                       StrFormat("condition '%s' is stuck at %s", cond.name.c_str(),
                                 can_t ? "true" : "false"));
    }
  }
}

std::vector<Interval> AbstractExec::ComputeInportRanges() {
  const std::vector<DType> types = sm_.InportTypes();
  std::vector<Interval> out;
  out.reserve(types.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    auto it = thresholds_.find(static_cast<int>(i));
    if (it == thresholds_.end() || it->second.empty()) {
      out.push_back(Interval::OfType(types[i]));
      continue;
    }
    std::set<double> pts = it->second;
    pts.insert(0.0);
    double lo = *pts.begin();
    double hi = *pts.rbegin();
    const double pad = std::max(1.0, 0.5 * (hi - lo));
    Interval r(lo - pad, hi + pad);
    if (!ir::DTypeIsFloat(types[i])) {
      r = r.Intersect(TypeRange(types[i]));
      if (r.empty()) r = Interval::OfType(types[i]);
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace

ModelAnalysis AnalyzeScheduledModel(const sched::ScheduledModel& sm) {
  return AbstractExec(sm, AnalyzeOptions{}).Run();
}

ModelAnalysis AnalyzeScheduledModel(const sched::ScheduledModel& sm,
                                    const AnalyzeOptions& options) {
  return AbstractExec(sm, options).Run();
}

}  // namespace cftcg::analysis
