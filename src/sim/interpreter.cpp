#include "sim/interpreter.hpp"

#include <cassert>
#include <cmath>
#include <tuple>

#include "blocks/registry.hpp"
#include "support/numerics.hpp"

namespace cftcg::sim {

using blocks::mex::Expr;
using blocks::mex::ExprKind;
using blocks::mex::IfBranch;
using blocks::mex::Stmt;
using blocks::mex::StmtKind;
using ir::Block;
using ir::BlockKind;
using ir::DType;
using ir::Model;
using namespace cftcg::num;

namespace {

/// Interpreter value: mirrors the VM's register model (floats carried as
/// double regardless of declared single/double; ints pre-wrapped).
struct IVal {
  bool is_float = true;
  double d = 0.0;
  std::int64_t i = 0;
  DType type = DType::kDouble;

  static IVal D(double v, DType t = DType::kDouble) {
    IVal x;
    x.is_float = true;
    x.d = v;
    x.type = t;
    return x;
  }
  static IVal I(std::int64_t v, DType t) {
    IVal x;
    x.is_float = false;
    x.i = ir::WrapToDType(v, t);
    x.type = t;
    return x;
  }
  static IVal B(bool v) { return I(v ? 1 : 0, DType::kBool); }

  [[nodiscard]] double AsD() const { return is_float ? d : static_cast<double>(i); }
  [[nodiscard]] bool AsB() const { return is_float ? d != 0.0 : i != 0; }
};

/// Identical cast semantics to the VM lowering's CastTo.
IVal Cast(const IVal& v, DType want) {
  const bool want_float = ir::DTypeIsFloat(want);
  if (v.is_float == want_float && (v.type == want || want_float)) {
    IVal out = v;
    out.type = want;
    return out;
  }
  if (want_float && !v.is_float) return IVal::D(static_cast<double>(v.i), want);
  if (!want_float && v.is_float) {
    if (want == DType::kBool) return IVal::B(v.d != 0.0);
    return IVal::I(TruncToI64(v.d), want);
  }
  if (want == DType::kBool) return IVal::B(v.i != 0);
  return IVal::I(v.i, want);
}

}  // namespace

/// One step's evaluation pass.
class Exec {
 public:
  Exec(Interpreter& interp, coverage::CoverageSink* sink)
      : interp_(interp), sm_(*interp.sm_), sink_(sink) {}

  void Run() {
    ExecSystem(*sm_.root);
    if (interp_.log_signals_) LogAllSignals();
    const Model& root = *sm_.root;
    const auto outports = root.Outports();
    for (std::size_t i = 0; i < outports.size(); ++i) {
      const Block& b = root.block(outports[i]);
      const ir::Wire* w = root.DriverOf(b.id(), 0);
      const IVal v = Get(root, w->src.block, w->src.port);
      const DType t = root.block(w->src.block).out_type(w->src.port);
      interp_.outputs_[i] = v.is_float ? ir::Value::Real(t, v.d) : ir::Value::Int(t, v.i);
    }
  }

 private:
  using Key = std::tuple<const Model*, ir::BlockId, int>;

  void Set(const Model& sys, ir::BlockId b, int port, IVal v) {
    values_[Key{&sys, b, port}] = v;
  }
  IVal Get(const Model& sys, ir::BlockId b, int port) const {
    auto it = values_.find(Key{&sys, b, port});
    assert(it != values_.end());
    return it->second;
  }
  IVal In(const Model& sys, const Block& b, int port) const {
    const ir::Wire* w = sys.DriverOf(b.id(), port);
    return Get(sys, w->src.block, w->src.port);
  }

  Interpreter::BlockState& State(const Block& b) { return interp_.state_[&b]; }

  void Hit(int slot) {
    if (sink_ != nullptr) sink_->Hit(slot);
  }
  void CovOutcome(coverage::DecisionId d, int outcome) {
    Hit(sm_.spec.OutcomeSlot(d, outcome));
  }
  void CovCondition(coverage::ConditionId c, bool v) {
    Hit(v ? sm_.spec.ConditionTrueSlot(c) : sm_.spec.ConditionFalseSlot(c));
  }

  void ExecSystem(const Model& sys) {
    for (ir::BlockId id : sm_.OrderOf(&sys)) ExecBlock(sys, sys.block(id));
    for (ir::BlockId id : sm_.OrderOf(&sys)) UpdateState(sys, sys.block(id));
  }

  void UpdateState(const Model& sys, const Block& b) {
    switch (b.kind()) {
      case BlockKind::kUnitDelay:
      case BlockKind::kMemory: {
        const IVal v = Cast(In(sys, b, 0), b.out_type(0));
        auto& st = State(b);
        if (v.is_float) st.d[0] = v.d;
        else st.i[0] = v.i;
        break;
      }
      case BlockKind::kDelay: {
        auto& st = State(b);
        const IVal v = Cast(In(sys, b, 0), b.out_type(0));
        if (v.is_float) {
          for (std::size_t k = st.d.size(); k > 1; --k) st.d[k - 1] = st.d[k - 2];
          st.d[0] = v.d;
        } else {
          for (std::size_t k = st.i.size(); k > 1; --k) st.i[k - 1] = st.i[k - 2];
          st.i[0] = v.i;
        }
        break;
      }
      case BlockKind::kDiscreteIntegrator: {
        auto& st = State(b);
        double acc = st.d[0] + b.params().GetDouble("gain", 1.0) * In(sys, b, 0).AsD();
        if (b.params().Has("upper") || b.params().Has("lower")) {
          const auto d = sm_.DecisionAt(&b, 0);
          const double lo = b.params().GetDouble("lower", -1e30);
          const double hi = b.params().GetDouble("upper", 1e30);
          if (acc < lo) {
            CovOutcome(d, 0);
            acc = lo;
          } else if (acc > hi) {
            CovOutcome(d, 2);
            acc = hi;
          } else {
            CovOutcome(d, 1);
          }
        }
        st.d[0] = acc;
        break;
      }
      default: break;
    }
  }

  void ExecBlock(const Model& sys, const Block& b) {
    switch (b.kind()) {
      case BlockKind::kInport: {
        if (values_.count(Key{&sys, b.id(), 0})) return;  // seeded by compound
        const auto field = static_cast<std::size_t>(b.params().GetInt("port", 0));
        const ir::Value& v = interp_.inputs_[field];
        const DType t = b.out_type(0);
        Set(sys, b.id(), 0,
            ir::DTypeIsFloat(t) ? IVal::D(v.AsDouble(), t) : IVal::I(v.AsInt64(), t));
        return;
      }
      case BlockKind::kOutport: return;
      case BlockKind::kConstant: {
        const DType t = b.out_type(0);
        const double v = b.params().GetDouble("value", 0.0);
        Set(sys, b.id(), 0,
            ir::DTypeIsFloat(t) ? IVal::D(v, t) : IVal::I(num::TruncToI64(v), t));
        return;
      }
      case BlockKind::kGain: {
        const double y = In(sys, b, 0).AsD() * b.params().GetDouble("gain", 1.0);
        Set(sys, b.id(), 0, Cast(IVal::D(y), b.out_type(0)));
        return;
      }
      case BlockKind::kBias: {
        const double y = In(sys, b, 0).AsD() + b.params().GetDouble("bias", 0.0);
        Set(sys, b.id(), 0, Cast(IVal::D(y), b.out_type(0)));
        return;
      }
      case BlockKind::kSum: {
        const std::string signs = b.params().GetString("signs", "++");
        const DType t = b.out_type(0);
        if (ir::DTypeIsFloat(t)) {
          double acc = 0;
          for (std::size_t k = 0; k < signs.size(); ++k) {
            const double v = In(sys, b, static_cast<int>(k)).AsD();
            acc = (k == 0) ? (signs[k] == '-' ? -v : v)
                           : (signs[k] == '-' ? acc - v : acc + v);
          }
          Set(sys, b.id(), 0, IVal::D(acc, t));
        } else {
          std::int64_t acc = 0;
          for (std::size_t k = 0; k < signs.size(); ++k) {
            const std::int64_t v = Cast(In(sys, b, static_cast<int>(k)), t).i;
            acc = (k == 0) ? (signs[k] == '-' ? ir::WrapToDType(-v, t) : v)
                           : ir::WrapToDType(signs[k] == '-' ? acc - v : acc + v, t);
          }
          Set(sys, b.id(), 0, IVal::I(acc, t));
        }
        return;
      }
      case BlockKind::kSubtract: return Arith2(sys, b, '-');
      case BlockKind::kProduct: {
        const std::string ops = b.params().GetString("ops", "**");
        double acc = In(sys, b, 0).AsD();
        if (ops[0] == '/') acc = SafeDiv(1.0, acc);
        for (std::size_t k = 1; k < ops.size(); ++k) {
          const double v = In(sys, b, static_cast<int>(k)).AsD();
          acc = (ops[k] == '/') ? SafeDiv(acc, v) : acc * v;
        }
        Set(sys, b.id(), 0, Cast(IVal::D(acc), b.out_type(0)));
        return;
      }
      case BlockKind::kDivide: {
        Set(sys, b.id(), 0,
            Cast(IVal::D(SafeDiv(In(sys, b, 0).AsD(), In(sys, b, 1).AsD())), b.out_type(0)));
        return;
      }
      case BlockKind::kMod: return Arith2(sys, b, '%');
      case BlockKind::kRem: return Arith2(sys, b, 'r');
      case BlockKind::kMin: return MinMax(sys, b, true);
      case BlockKind::kMax: return MinMax(sys, b, false);
      case BlockKind::kAbs: {
        const DType t = b.out_type(0);
        const IVal u = Cast(In(sys, b, 0), t);
        if (ir::DTypeIsFloat(t)) {
          Set(sys, b.id(), 0, IVal::D(std::fabs(u.d), t));
          return;
        }
        const auto d = sm_.DecisionAt(&b, 0);
        if (u.i < 0) {
          CovOutcome(d, 0);
          Set(sys, b.id(), 0, IVal::I(-u.i, t));
        } else {
          CovOutcome(d, 1);
          Set(sys, b.id(), 0, u);
        }
        return;
      }
      case BlockKind::kUnaryMinus: {
        const DType t = b.out_type(0);
        const IVal u = Cast(In(sys, b, 0), t);
        Set(sys, b.id(), 0, u.is_float ? IVal::D(-u.d, t) : IVal::I(-u.i, t));
        return;
      }
      case BlockKind::kSign: {
        const DType t = b.out_type(0);
        const IVal u = Cast(In(sys, b, 0), t);
        const auto d = sm_.DecisionAt(&b, 0);
        const double v = u.AsD();
        int outcome;
        double res;
        if (v > 0) {
          outcome = 0;
          res = 1;
        } else if (v < 0) {
          outcome = 1;
          res = -1;
        } else {
          outcome = 2;
          res = 0;
        }
        CovOutcome(d, outcome);
        Set(sys, b.id(), 0,
            u.is_float ? IVal::D(res, t) : IVal::I(num::TruncToI64(res), t));
        return;
      }
      case BlockKind::kSqrt: return Unary(sys, b, [](double v) { return SafeSqrt(v); });
      case BlockKind::kExp: return Unary(sys, b, [](double v) { return Finite(std::exp(v)); });
      case BlockKind::kLog: return Unary(sys, b, [](double v) { return SafeLog(v); });
      case BlockKind::kSin: return Unary(sys, b, [](double v) { return std::sin(v); });
      case BlockKind::kCos: return Unary(sys, b, [](double v) { return std::cos(v); });
      case BlockKind::kTan: return Unary(sys, b, [](double v) { return Finite(std::tan(v)); });
      case BlockKind::kFloor:
      case BlockKind::kCeil:
      case BlockKind::kRound: {
        const DType t = b.out_type(0);
        if (!ir::DTypeIsFloat(t)) {
          Set(sys, b.id(), 0, In(sys, b, 0));
          return;
        }
        const double u = In(sys, b, 0).AsD();
        double y;
        if (b.kind() == BlockKind::kFloor) y = std::floor(u);
        else if (b.kind() == BlockKind::kCeil) y = std::ceil(u);
        else y = std::nearbyint(u);
        Set(sys, b.id(), 0, IVal::D(y, t));
        return;
      }
      case BlockKind::kAtan2: {
        Set(sys, b.id(), 0, IVal::D(std::atan2(In(sys, b, 0).AsD(), In(sys, b, 1).AsD())));
        return;
      }
      case BlockKind::kPow: {
        Set(sys, b.id(), 0, IVal::D(Finite(std::pow(In(sys, b, 0).AsD(), In(sys, b, 1).AsD()))));
        return;
      }
      case BlockKind::kSaturation: {
        const DType t = b.out_type(0);
        const IVal u = Cast(In(sys, b, 0), t);
        const auto d = sm_.DecisionAt(&b, 0);
        if (ir::DTypeIsFloat(t)) {
          const double lo = b.params().GetDouble("lower", 0.0);
          const double hi = b.params().GetDouble("upper", 1.0);
          if (u.d < lo) {
            CovOutcome(d, 0);
            Set(sys, b.id(), 0, IVal::D(lo, t));
          } else if (u.d > hi) {
            CovOutcome(d, 2);
            Set(sys, b.id(), 0, IVal::D(hi, t));
          } else {
            CovOutcome(d, 1);
            Set(sys, b.id(), 0, u);
          }
        } else {
          const auto lo = ir::ClampToDType(
              num::TruncToI64(b.params().GetDouble("lower", 0.0)), t);
          const auto hi = ir::ClampToDType(
              num::TruncToI64(b.params().GetDouble("upper", 1.0)), t);
          if (u.i < lo) {
            CovOutcome(d, 0);
            Set(sys, b.id(), 0, IVal::I(lo, t));
          } else if (u.i > hi) {
            CovOutcome(d, 2);
            Set(sys, b.id(), 0, IVal::I(hi, t));
          } else {
            CovOutcome(d, 1);
            Set(sys, b.id(), 0, u);
          }
        }
        return;
      }
      case BlockKind::kDeadZone: {
        const double u = In(sys, b, 0).AsD();
        const double s0 = b.params().GetDouble("start", -0.5);
        const double s1 = b.params().GetDouble("end", 0.5);
        const auto d = sm_.DecisionAt(&b, 0);
        double y;
        if (u < s0) {
          CovOutcome(d, 0);
          y = u - s0;
        } else if (u > s1) {
          CovOutcome(d, 2);
          y = u - s1;
        } else {
          CovOutcome(d, 1);
          y = 0;
        }
        Set(sys, b.id(), 0, Cast(IVal::D(y), b.out_type(0)));
        return;
      }
      case BlockKind::kRateLimiter: {
        auto& st = State(b);
        if (st.d.empty()) st.d.assign(1, b.params().GetDouble("init", 0.0));
        const double u = In(sys, b, 0).AsD();
        const double rise = b.params().GetDouble("rising", 1.0);
        const double fall = b.params().GetDouble("falling", -1.0);
        const auto d = sm_.DecisionAt(&b, 0);
        const double delta = u - st.d[0];
        double y;
        if (delta > rise) {
          CovOutcome(d, 0);
          y = st.d[0] + rise;
        } else if (delta < fall) {
          CovOutcome(d, 2);
          y = st.d[0] + fall;
        } else {
          CovOutcome(d, 1);
          y = u;
        }
        st.d[0] = y;
        Set(sys, b.id(), 0, IVal::D(y));
        return;
      }
      case BlockKind::kQuantizer: {
        const double q = b.params().GetDouble("interval", 1.0);
        const double y = q * std::nearbyint(SafeDiv(In(sys, b, 0).AsD(), q));
        Set(sys, b.id(), 0, Cast(IVal::D(y), b.out_type(0)));
        return;
      }
      case BlockKind::kRelay: {
        auto& st = State(b);
        if (st.i.empty()) st.i.assign(1, b.params().GetDouble("init", 0.0) != 0.0 ? 1 : 0);
        const double u = In(sys, b, 0).AsD();
        const auto d = sm_.DecisionAt(&b, 0);
        if (st.i[0] != 0) {
          if (u <= b.params().GetDouble("off_point", 0.0)) st.i[0] = 0;
        } else {
          if (u >= b.params().GetDouble("on_point", 1.0)) st.i[0] = 1;
        }
        if (st.i[0] != 0) {
          CovOutcome(d, 0);
          Set(sys, b.id(), 0, IVal::D(b.params().GetDouble("on_value", 1.0)));
        } else {
          CovOutcome(d, 1);
          Set(sys, b.id(), 0, IVal::D(b.params().GetDouble("off_value", 0.0)));
        }
        return;
      }
      case BlockKind::kRelationalOp:
      case BlockKind::kCompareToConstant:
      case BlockKind::kCompareToZero: {
        const std::string op = b.params().GetString("op", "lt");
        const IVal a = In(sys, b, 0);
        IVal c;
        if (b.kind() == BlockKind::kRelationalOp) {
          c = In(sys, b, 1);
        } else if (b.kind() == BlockKind::kCompareToConstant) {
          const double v = b.params().GetDouble("value", 0.0);
          c = (a.is_float || !ir::DTypeHolds(a.type, v))
                  ? IVal::D(v)
                  : IVal::I(static_cast<std::int64_t>(v), a.type);
        } else {
          c = a.is_float ? IVal::D(0.0) : IVal::I(0, a.type);
        }
        const bool r = Relate(a, c, op);
        CovCondition(sm_.ConditionAt(&b, 0), r);
        Set(sys, b.id(), 0, IVal::B(r));
        return;
      }
      case BlockKind::kLogicalAnd:
      case BlockKind::kLogicalOr:
      case BlockKind::kLogicalXor:
      case BlockKind::kLogicalNand:
      case BlockKind::kLogicalNor: {
        const int n = b.num_inputs();
        const auto d = sm_.DecisionAt(&b, 0);
        std::uint32_t vals = 0;
        bool acc = In(sys, b, 0).AsB();
        for (int k = 0; k < n; ++k) {
          const bool bk = In(sys, b, k).AsB();
          CovCondition(sm_.ConditionAt(&b, k + 1), bk);
          if (bk) vals |= 1U << k;
          if (k > 0) {
            switch (b.kind()) {
              case BlockKind::kLogicalOr:
              case BlockKind::kLogicalNor: acc = acc || bk; break;
              case BlockKind::kLogicalXor: acc = acc != bk; break;
              default: acc = acc && bk; break;
            }
          }
        }
        if (b.kind() == BlockKind::kLogicalNand || b.kind() == BlockKind::kLogicalNor) acc = !acc;
        if (sink_ != nullptr) sink_->RecordEval(d, vals, (1U << n) - 1, acc ? 1 : 0);
        CovOutcome(d, acc ? 0 : 1);
        Set(sys, b.id(), 0, IVal::B(acc));
        return;
      }
      case BlockKind::kLogicalNot: {
        Set(sys, b.id(), 0, IVal::B(!In(sys, b, 0).AsB()));
        return;
      }
      case BlockKind::kBitwiseAnd:
      case BlockKind::kBitwiseOr:
      case BlockKind::kBitwiseXor: {
        const DType t = b.out_type(0);
        const std::int64_t a = Cast(In(sys, b, 0), t).i;
        const std::int64_t c = Cast(In(sys, b, 1), t).i;
        std::int64_t y = a & c;
        if (b.kind() == BlockKind::kBitwiseOr) y = a | c;
        else if (b.kind() == BlockKind::kBitwiseXor) y = a ^ c;
        Set(sys, b.id(), 0, IVal::I(y, t));
        return;
      }
      case BlockKind::kShiftLeft:
      case BlockKind::kShiftRight: {
        const DType t = b.out_type(0);
        const std::int64_t a = Cast(In(sys, b, 0), t).i;
        const auto bits = static_cast<int>(b.params().GetInt("bits", 1)) & 63;
        const std::int64_t y =
            (b.kind() == BlockKind::kShiftLeft)
                ? static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << bits)
                : (a >> bits);
        Set(sys, b.id(), 0, IVal::I(y, t));
        return;
      }
      case BlockKind::kSwitch: {
        const DType t = b.out_type(0);
        const IVal ctrl = In(sys, b, 1);
        const std::string criteria = b.params().GetString("criteria", "ge");
        const auto d = sm_.DecisionAt(&b, 0);
        bool cond;
        if (criteria == "ne") {
          cond = ctrl.AsB();
        } else {
          const double thr = b.params().GetDouble("threshold", 0.0);
          IVal th = (ctrl.is_float || !ir::DTypeHolds(ctrl.type, thr))
                        ? IVal::D(thr)
                        : IVal::I(static_cast<std::int64_t>(thr), ctrl.type);
          cond = Relate(ctrl, th, criteria);
        }
        CovOutcome(d, cond ? 0 : 1);
        Set(sys, b.id(), 0, Cast(In(sys, b, cond ? 0 : 2), t));
        return;
      }
      case BlockKind::kMultiportSwitch: {
        const DType t = b.out_type(0);
        const int cases = static_cast<int>(b.params().GetInt("cases", 2));
        const auto d = sm_.DecisionAt(&b, 0);
        const std::int64_t idx = Cast(In(sys, b, 0), DType::kInt32).i;
        int chosen = cases - 1;
        for (int k = 0; k < cases - 1; ++k) {
          if (idx == k + 1) {
            chosen = k;
            break;
          }
        }
        CovOutcome(d, chosen);
        Set(sys, b.id(), 0, Cast(In(sys, b, 1 + chosen), t));
        return;
      }
      case BlockKind::kMerge: {
        const DType t = b.out_type(0);
        const int n = b.num_inputs();
        int chosen = n - 1;
        for (int k = 0; k < n - 1; ++k) {
          if (In(sys, b, k).AsB()) {
            chosen = k;
            break;
          }
        }
        Set(sys, b.id(), 0, Cast(In(sys, b, chosen), t));
        return;
      }
      case BlockKind::kUnitDelay:
      case BlockKind::kMemory: {
        auto& st = State(b);
        const DType t = b.out_type(0);
        if (st.d.empty() && st.i.empty()) InitDelayState(b, st, 1);
        Set(sys, b.id(), 0, ir::DTypeIsFloat(t) ? IVal::D(st.d[0], t) : IVal::I(st.i[0], t));
        return;
      }
      case BlockKind::kDelay: {
        auto& st = State(b);
        const DType t = b.out_type(0);
        const auto n = static_cast<std::size_t>(b.params().GetInt("length", 1));
        if (st.d.empty() && st.i.empty()) InitDelayState(b, st, n);
        Set(sys, b.id(), 0,
            ir::DTypeIsFloat(t) ? IVal::D(st.d[n - 1], t) : IVal::I(st.i[n - 1], t));
        return;
      }
      case BlockKind::kDiscreteIntegrator: {
        auto& st = State(b);
        if (st.d.empty()) st.d.assign(1, b.params().GetDouble("init", 0.0));
        Set(sys, b.id(), 0, IVal::D(st.d[0]));
        return;
      }
      case BlockKind::kCounterLimited: {
        auto& st = State(b);
        const DType t = b.out_type(0);
        if (st.i.empty()) {
          st.i.assign(
              1, ir::WrapToDType(num::TruncToI64(b.params().GetDouble("init", 0.0)), t));
        }
        const auto d = sm_.DecisionAt(&b, 0);
        if (In(sys, b, 0).AsB()) {
          const std::int64_t limit = b.params().GetInt("limit", 10);
          if (st.i[0] >= limit) {
            CovOutcome(d, 0);
            st.i[0] = 0;
          } else {
            CovOutcome(d, 1);
            st.i[0] = ir::WrapToDType(st.i[0] + 1, t);
          }
        }
        Set(sys, b.id(), 0, IVal::I(st.i[0], t));
        return;
      }
      case BlockKind::kEdgeDetector: {
        auto& st = State(b);
        if (st.i.empty()) st.i.assign(1, 0);
        const std::string edge = b.params().GetString("edge", "rising");
        const bool u = In(sys, b, 0).AsB();
        const bool prev = st.i[0] != 0;
        bool out;
        if (edge == "falling") out = !u && prev;
        else if (edge == "either") out = u != prev;
        else out = u && !prev;
        st.i[0] = u ? 1 : 0;
        const auto d = sm_.DecisionAt(&b, 0);
        CovOutcome(d, out ? 0 : 1);
        CovCondition(sm_.ConditionAt(&b, 1), out);
        Set(sys, b.id(), 0, IVal::B(out));
        return;
      }
      case BlockKind::kLookup1D: {
        const auto bp = b.params().GetList("breakpoints");
        const auto tb = b.params().GetList("table");
        const double u = In(sys, b, 0).AsD();
        double y;
        if (u <= bp.front()) {
          y = tb.front();
        } else if (u > bp.back()) {
          y = tb.back();
        } else {
          y = tb.back();
          for (std::size_t k = 1; k < bp.size(); ++k) {
            if (u <= bp[k]) {
              const double slope =
                  (bp[k] == bp[k - 1]) ? 0.0 : (tb[k] - tb[k - 1]) / (bp[k] - bp[k - 1]);
              y = tb[k - 1] + (u - bp[k - 1]) * slope;
              break;
            }
          }
        }
        Set(sys, b.id(), 0, IVal::D(y));
        return;
      }
      case BlockKind::kDataTypeConversion: {
        Set(sys, b.id(), 0, Cast(In(sys, b, 0), b.out_type(0)));
        return;
      }
      case BlockKind::kSubsystem: {
        const Model& sub = *b.subs()[0];
        SeedSub(sys, b, sub, 0);
        ExecSystem(sub);
        PublishSub(sys, b, sub);
        return;
      }
      case BlockKind::kActionIf: {
        const auto d = sm_.DecisionAt(&b, 0);
        const bool cond = In(sys, b, 0).AsB();
        CovOutcome(d, cond ? 0 : 1);
        const Model& sub = *b.subs()[cond ? 0 : 1];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub);
        PublishSub(sys, b, sub);
        return;
      }
      case BlockKind::kActionSwitch: {
        const auto d = sm_.DecisionAt(&b, 0);
        const int n_subs = static_cast<int>(b.subs().size());
        const std::int64_t idx = Cast(In(sys, b, 0), DType::kInt32).i;
        int chosen = n_subs - 1;
        for (int k = 0; k < n_subs - 1; ++k) {
          if (idx == k + 1) {
            chosen = k;
            break;
          }
        }
        CovOutcome(d, chosen);
        const Model& sub = *b.subs()[static_cast<std::size_t>(chosen)];
        SeedSub(sys, b, sub, 1);
        ExecSystem(sub);
        PublishSub(sys, b, sub);
        return;
      }
      case BlockKind::kEnabledSubsystem: {
        const auto d = sm_.DecisionAt(&b, 0);
        auto& st = State(b);
        if (st.d.empty() && b.num_outputs() > 0) {
          st.d.assign(static_cast<std::size_t>(b.num_outputs()),
                      b.params().GetDouble("init", 0.0));
        }
        const bool enable = In(sys, b, 0).AsB();
        if (enable) {
          CovOutcome(d, 0);
          const Model& sub = *b.subs()[0];
          SeedSub(sys, b, sub, 1);
          ExecSystem(sub);
          const auto outports = sub.Outports();
          for (std::size_t k = 0; k < outports.size(); ++k) {
            const ir::Wire* w = sub.DriverOf(outports[k], 0);
            const IVal v =
                Cast(Get(sub, w->src.block, w->src.port), b.out_type(static_cast<int>(k)));
            st.d[k] = v.AsD();
          }
        } else {
          CovOutcome(d, 1);
        }
        for (int k = 0; k < b.num_outputs(); ++k) {
          const DType t = b.out_type(k);
          if (ir::DTypeIsFloat(t)) {
            Set(sys, b.id(), k, IVal::D(st.d[static_cast<std::size_t>(k)], t));
          } else {
            Set(sys, b.id(), k,
                IVal::I(num::TruncToI64(st.d[static_cast<std::size_t>(k)]), t));
          }
        }
        return;
      }
      case BlockKind::kChart: return ExecChart(sys, b);
      case BlockKind::kExprFunc: return ExecExprFunc(sys, b);
    }
  }

  void InitDelayState(const Block& b, Interpreter::BlockState& st, std::size_t n) {
    const DType t = b.out_type(0);
    const double init = b.params().GetDouble("init", 0.0);
    if (ir::DTypeIsFloat(t)) {
      st.d.assign(n, init);
    } else {
      st.i.assign(n, ir::WrapToDType(num::TruncToI64(init), t));
    }
  }

  template <typename F>
  void Unary(const Model& sys, const Block& b, F fn) {
    Set(sys, b.id(), 0, IVal::D(fn(In(sys, b, 0).AsD())));
  }

  void Arith2(const Model& sys, const Block& b, char op) {
    const DType t = b.out_type(0);
    if (ir::DTypeIsFloat(t)) {
      const double a = In(sys, b, 0).AsD();
      const double c = In(sys, b, 1).AsD();
      double y;
      if (op == '-') y = a - c;
      else if (op == '%') y = SafeMod(a, c);
      else y = SafeRem(a, c);
      Set(sys, b.id(), 0, IVal::D(y, t));
    } else {
      const std::int64_t a = Cast(In(sys, b, 0), t).i;
      const std::int64_t c = Cast(In(sys, b, 1), t).i;
      std::int64_t y;
      if (op == '-') y = a - c;
      else if (op == '%') y = SafeModI(a, c);
      else y = SafeRemI(a, c);
      Set(sys, b.id(), 0, IVal::I(y, t));
    }
  }

  void MinMax(const Model& sys, const Block& b, bool is_min) {
    const DType t = b.out_type(0);
    const IVal a = Cast(In(sys, b, 0), t);
    const IVal c = Cast(In(sys, b, 1), t);
    const auto d = sm_.DecisionAt(&b, 0);
    const bool take_a = Relate(a, c, is_min ? "le" : "ge");
    CovOutcome(d, take_a ? 0 : 1);
    Set(sys, b.id(), 0, take_a ? a : c);
  }

  bool Relate(const IVal& a, const IVal& c, const std::string& op) const {
    const DType pt = ir::PromoteDTypes(a.type, c.type);
    if (ir::DTypeIsFloat(pt)) {
      const double x = a.AsD();
      const double y = c.AsD();
      if (op == "lt" || op == "<") return x < y;
      if (op == "le" || op == "<=") return x <= y;
      if (op == "gt" || op == ">") return x > y;
      if (op == "ge" || op == ">=") return x >= y;
      if (op == "eq" || op == "==") return x == y;
      return x != y;
    }
    const std::int64_t x = Cast(a, pt).i;
    const std::int64_t y = Cast(c, pt).i;
    if (op == "lt" || op == "<") return x < y;
    if (op == "le" || op == "<=") return x <= y;
    if (op == "gt" || op == ">") return x > y;
    if (op == "ge" || op == ">=") return x >= y;
    if (op == "eq" || op == "==") return x == y;
    return x != y;
  }

  void SeedSub(const Model& sys, const Block& b, const Model& sub, int offset) {
    const auto inports = sub.Inports();
    for (std::size_t k = 0; k < inports.size(); ++k) {
      const Block& ip = sub.block(inports[k]);
      Set(sub, ip.id(), 0, Cast(In(sys, b, offset + static_cast<int>(k)), ip.out_type(0)));
    }
  }

  void PublishSub(const Model& sys, const Block& b, const Model& sub) {
    const auto outports = sub.Outports();
    for (std::size_t k = 0; k < outports.size(); ++k) {
      const ir::Wire* w = sub.DriverOf(outports[k], 0);
      Set(sys, b.id(), static_cast<int>(k),
          Cast(Get(sub, w->src.block, w->src.port), b.out_type(static_cast<int>(k))));
    }
  }

  // -- mex evaluation ---------------------------------------------------------
  using Env = std::map<std::string, double>;

  double EvalExpr(const Expr& e, Env& env) {
    switch (e.kind) {
      case ExprKind::kNumber: return e.number;
      case ExprKind::kVar: return env.at(e.name);
      case ExprKind::kUnary:
        if (e.op == "!") return EvalBool(*e.args[0], env) ? 0.0 : 1.0;
        return -EvalExpr(*e.args[0], env);
      case ExprKind::kBinary: {
        if (blocks::mex::IsBooleanOp(e.op)) return EvalBool(e, env) ? 1.0 : 0.0;
        const double a = EvalExpr(*e.args[0], env);
        const double c = EvalExpr(*e.args[1], env);
        if (e.op == "+") return a + c;
        if (e.op == "-") return a - c;
        if (e.op == "*") return a * c;
        if (e.op == "/") return SafeDiv(a, c);
        return SafeMod(a, c);
      }
      case ExprKind::kCall: {
        auto arg = [&](std::size_t k) { return EvalExpr(*e.args[k], env); };
        if (e.name == "abs") return std::fabs(arg(0));
        if (e.name == "min") return std::fmin(arg(0), arg(1));
        if (e.name == "max") return std::fmax(arg(0), arg(1));
        if (e.name == "floor") return std::floor(arg(0));
        if (e.name == "ceil") return std::ceil(arg(0));
        if (e.name == "round") return std::nearbyint(arg(0));
        if (e.name == "sqrt") return SafeSqrt(arg(0));
        if (e.name == "exp") return Finite(std::exp(arg(0)));
        if (e.name == "log") return SafeLog(arg(0));
        if (e.name == "sin") return std::sin(arg(0));
        if (e.name == "cos") return std::cos(arg(0));
        if (e.name == "tan") return Finite(std::tan(arg(0)));
        if (e.name == "atan2") return std::atan2(arg(0), arg(1));
        if (e.name == "pow") return Finite(std::pow(arg(0), arg(1)));
        if (e.name == "mod") return SafeMod(arg(0), arg(1));
        if (e.name == "rem") return SafeRem(arg(0), arg(1));
        if (e.name == "sign") {
          const double v = arg(0);
          return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0);
        }
        return 0.0;
      }
    }
    return 0.0;
  }

  bool EvalBool(const Expr& e, Env& env) {
    if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
      const bool lhs = EvalBool(*e.args[0], env);
      if (e.op == "&&") return lhs && EvalBool(*e.args[1], env);
      return lhs || EvalBool(*e.args[1], env);
    }
    if (e.kind == ExprKind::kUnary && e.op == "!") return !EvalBool(*e.args[0], env);
    if (e.kind == ExprKind::kBinary && blocks::mex::IsBooleanOp(e.op)) {
      const double a = EvalExpr(*e.args[0], env);
      const double c = EvalExpr(*e.args[1], env);
      if (e.op == "<") return a < c;
      if (e.op == "<=") return a <= c;
      if (e.op == ">") return a > c;
      if (e.op == ">=") return a >= c;
      if (e.op == "==") return a == c;
      return a != c;
    }
    return EvalExpr(e, env) != 0.0;
  }

  bool EvalCond(const Expr& e, Env& env, const std::map<const Expr*, int>& bit_of,
                std::uint32_t& vals, std::uint32_t& mask) {
    if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
      const bool lhs = EvalCond(*e.args[0], env, bit_of, vals, mask);
      if (e.op == "&&") {
        if (!lhs) return false;
        return EvalCond(*e.args[1], env, bit_of, vals, mask);
      }
      if (lhs) return true;
      return EvalCond(*e.args[1], env, bit_of, vals, mask);
    }
    if (e.kind == ExprKind::kUnary && e.op == "!") {
      return !EvalCond(*e.args[0], env, bit_of, vals, mask);
    }
    const bool v = EvalBool(e, env);
    auto it = bit_of.find(&e);
    if (it != bit_of.end() && it->second < 24) {
      mask |= 1U << it->second;
      if (v) vals |= 1U << it->second;
      CovCondition(sm_.ConditionAt(&e, 0), v);
    }
    return v;
  }

  bool EvalDecision(const Expr& cond, Env& env, coverage::DecisionId d) {
    std::map<const Expr*, int> bit_of;
    std::vector<const Expr*> leaves;
    blocks::mex::CollectConditionLeaves(cond, leaves);
    for (std::size_t k = 0; k < leaves.size(); ++k) bit_of[leaves[k]] = static_cast<int>(k);
    std::uint32_t vals = 0;
    std::uint32_t mask = 0;
    const bool r = EvalCond(cond, env, bit_of, vals, mask);
    if (sink_ != nullptr) sink_->RecordEval(d, vals, mask, r ? 1 : 0);
    return r;
  }

  void EvalStmts(const std::vector<blocks::mex::StmtPtr>& stmts, Env& env) {
    for (const auto& s : stmts) EvalStmt(*s, env);
  }

  void EvalStmt(const Stmt& stmt, Env& env) {
    if (stmt.kind == StmtKind::kAssign) {
      env[stmt.target] = EvalExpr(*stmt.value, env);
      return;
    }
    for (std::size_t arm = 0; arm < stmt.branches.size(); ++arm) {
      const IfBranch& br = stmt.branches[arm];
      if (!br.cond) {
        EvalStmts(br.body, env);
        return;
      }
      const auto d = sm_.DecisionAt(&stmt, static_cast<int>(arm));
      if (EvalDecision(*br.cond, env, d)) {
        CovOutcome(d, 0);
        EvalStmts(br.body, env);
        return;
      }
      CovOutcome(d, 1);
    }
  }

  void ExecExprFunc(const Model& sys, const Block& b) {
    const auto* compiled = sm_.analysis.programs.FindExprFunc(&b);
    assert(compiled != nullptr);
    Env env;
    for (std::size_t k = 0; k < compiled->in_names.size(); ++k) {
      env[compiled->in_names[k]] = In(sys, b, static_cast<int>(k)).AsD();
    }
    for (const auto& name : compiled->out_names) env[name] = 0.0;
    for (const auto& name : compiled->local_names) env[name] = 0.0;
    EvalStmts(compiled->program.stmts, env);
    for (std::size_t k = 0; k < compiled->out_names.size(); ++k) {
      Set(sys, b.id(), static_cast<int>(k),
          Cast(IVal::D(env[compiled->out_names[k]]), b.out_type(static_cast<int>(k))));
    }
  }

  void ExecChart(const Model& sys, const Block& b) {
    const auto* compiled = sm_.analysis.programs.FindChart(&b);
    assert(compiled != nullptr);
    const ir::ChartDef& def = *b.chart();
    auto& st = State(b);
    if (st.i.empty()) {
      st.i.assign(1, def.initial_state);
      for (const auto& v : def.vars) st.vars[v.name] = v.init;
      for (const auto& o : def.outputs) st.vars[o.name] = o.init;
    }
    Env env;
    for (std::size_t k = 0; k < def.inputs.size(); ++k) {
      env[def.inputs[k]] = In(sys, b, static_cast<int>(k)).AsD();
    }
    for (const auto& v : def.vars) env[v.name] = st.vars[v.name];
    for (const auto& o : def.outputs) env[o.name] = st.vars[o.name];

    const auto active = static_cast<std::size_t>(st.i[0]);
    bool fired = false;
    for (int t : compiled->outgoing[active]) {
      const auto& ct = compiled->transitions[static_cast<std::size_t>(t)];
      const ir::ChartTransition& dt = def.transitions[static_cast<std::size_t>(t)];
      const auto d = sm_.DecisionAt(&b, 1000 + t);
      const bool taken = !ct.guard || EvalDecision(*ct.guard->expr, env, d);
      CovOutcome(d, taken ? 0 : 1);
      if (taken) {
        if (compiled->states[active].exit) EvalStmts(compiled->states[active].exit->stmts, env);
        if (ct.action) EvalStmts(ct.action->stmts, env);
        const auto dest = static_cast<std::size_t>(dt.to);
        if (compiled->states[dest].entry) EvalStmts(compiled->states[dest].entry->stmts, env);
        st.i[0] = dt.to;
        fired = true;
        break;
      }
    }
    if (!fired && compiled->states[active].during) {
      EvalStmts(compiled->states[active].during->stmts, env);
    }
    for (const auto& v : def.vars) st.vars[v.name] = env[v.name];
    for (const auto& o : def.outputs) st.vars[o.name] = env[o.name];
    for (std::size_t k = 0; k < def.outputs.size(); ++k) {
      Set(sys, b.id(), static_cast<int>(k),
          Cast(IVal::D(st.vars[def.outputs[k].name]), def.outputs[k].type));
    }
  }

  /// Simulation-engine bookkeeping: record every computed signal value of
  /// this step into the bounded ring (Simulink logs signal data while
  /// recording coverage; this is the corresponding cost on our side).
  void LogAllSignals() {
    std::vector<double> row;
    row.reserve(values_.size());
    for (const auto& [key, v] : values_) row.push_back(v.AsD());
    auto& log = interp_.full_log_;
    if (log.size() < Interpreter::kFullLogCapacity) {
      log.push_back(std::move(row));
    } else {
      log[interp_.full_log_next_ % Interpreter::kFullLogCapacity] = std::move(row);
      ++interp_.full_log_next_;
    }
  }

  Interpreter& interp_;
  const sched::ScheduledModel& sm_;
  coverage::CoverageSink* sink_;
  std::map<Key, IVal> values_;
};

Interpreter::Interpreter(const sched::ScheduledModel& sm, bool log_signals)
    : sm_(&sm), log_signals_(log_signals) {
  inputs_.resize(sm.InportTypes().size());
  outputs_.resize(sm.root->Outports().size());
  Reset();
}

void Interpreter::Reset() {
  state_.clear();
  signal_log_.clear();
}

void Interpreter::SetInputsFromBytes(const std::uint8_t* tuple) {
  std::size_t offset = 0;
  const auto types = sm_->InportTypes();
  for (std::size_t i = 0; i < types.size(); ++i) {
    inputs_[i] = ir::Value::FromBytes(types[i], tuple + offset);
    offset += ir::DTypeSize(types[i]);
  }
}

void Interpreter::SetInputs(std::span<const ir::Value> values) {
  const auto types = sm_->InportTypes();
  for (std::size_t i = 0; i < values.size() && i < inputs_.size(); ++i) {
    inputs_[i] = values[i].CastTo(types[i]);
  }
}

void Interpreter::Step(coverage::CoverageSink* sink) {
  Exec exec(*this, sink);
  exec.Run();
  if (log_signals_) {
    std::vector<double> row;
    row.reserve(outputs_.size());
    for (const auto& v : outputs_) row.push_back(v.AsDouble());
    signal_log_.push_back(std::move(row));
  }
}

ir::Value Interpreter::GetOutput(int index) const {
  return outputs_[static_cast<std::size_t>(index)];
}

}  // namespace cftcg::sim
