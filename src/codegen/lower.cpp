#include "codegen/lower.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <tuple>
#include <unordered_map>

#include "blocks/registry.hpp"
#include "support/strings.hpp"

namespace cftcg::codegen {

using blocks::mex::Expr;
using blocks::mex::ExprKind;
using blocks::mex::IfBranch;
using blocks::mex::Program;
using blocks::mex::Stmt;
using blocks::mex::StmtKind;
using ir::Block;
using ir::BlockKind;
using ir::DType;
using ir::Model;
using vm::Insn;
using vm::Op;

namespace {

/// A lowered value: which register file, which register, and the model-level
/// signal type it carries.
struct Slot {
  bool is_float = true;
  int reg = 0;
  DType type = DType::kDouble;
};

class Lowerer {
 public:
  Lowerer(const sched::ScheduledModel& sm, const LoweringOptions& opts) : sm_(sm), opts_(opts) {}

  Result<vm::Program> Run() {
    const Model& root = *sm_.root;
    prog_.input_types = sm_.InportTypes();
    prog_.output_types.resize(root.Outports().size());
    if (opts_.edge_instrumentation) NewEdge();  // entry edge
    if (Status s = LowerSystem(root, ""); !s.ok()) return s;
    EmitOp(Op::kHalt);
    prog_.num_dregs = next_dreg_;
    prog_.num_iregs = next_ireg_;
    FuseCompareBranches();
    if (Status s = CheckPoolNotWritten(); !s.ok()) return s;
    return std::move(prog_);
  }

 private:
  // ---- emission primitives -------------------------------------------------
  std::size_t Emit(Insn in) {
    prog_.code.push_back(in);
    // Block attribution (profiler VM plane): every instruction carries the
    // index of the model block whose lowering emitted it; -1 = glue. All
    // emission funnels through here, so the side table stays parallel.
    prog_.insn_block.push_back(cur_block_);
    return prog_.code.size() - 1;
  }
  std::size_t EmitOp(Op op, int dst = 0, int a = 0, int b = 0, int imm = 0, int aux = 0,
                     double dimm = 0.0, DType type = DType::kDouble) {
    Insn in;
    in.op = op;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.imm = imm;
    in.aux = aux;
    in.dimm = dimm;
    in.type = type;
    return Emit(in);
  }
  int NewD() { return next_dreg_++; }
  int NewI() { return next_ireg_++; }
  int NewEdge() { return prog_.num_edges++; }

  std::size_t Here() const { return prog_.code.size(); }
  std::size_t EmitJmp() { return EmitOp(Op::kJmp); }
  std::size_t EmitJz(int ireg) { return EmitOp(Op::kJmpIfZero, 0, ireg); }
  std::size_t EmitJnz(int ireg) { return EmitOp(Op::kJmpIfNotZero, 0, ireg); }
  void Patch(std::size_t at) { prog_.code[at].imm = static_cast<std::int32_t>(Here()); }
  void PatchAll(std::vector<std::size_t>& ats) {
    for (auto at : ats) Patch(at);
    ats.clear();
  }

  int NewStateD(double init, DType type, std::string name) {
    vm::StateSlot s;
    s.is_float = true;
    s.init = init;
    s.type = type;
    s.name = std::move(name);
    prog_.state_d.push_back(std::move(s));
    return static_cast<int>(prog_.state_d.size()) - 1;
  }
  int NewStateI(double init, DType type, std::string name) {
    vm::StateSlot s;
    s.is_float = false;
    s.init = init;
    s.type = type;
    s.name = std::move(name);
    prog_.state_i.push_back(std::move(s));
    return static_cast<int>(prog_.state_i.size()) - 1;
  }

  // ---- value helpers --------------------------------------------------------
  /// Constant-pool registers: one per distinct value, listed in
  /// Program::const_d / const_i and preloaded by the Machine, so a constant
  /// costs no dispatch. Callers only read them (CheckPoolNotWritten).
  Slot ConstD(double v) {
    const auto [it, fresh] = pool_d_.try_emplace(std::bit_cast<std::uint64_t>(v), 0);
    if (fresh) {
      it->second = NewD();
      prog_.const_d.push_back({it->second, v});
    }
    return Slot{true, it->second, DType::kDouble};
  }
  Slot ConstI(std::int64_t v, DType t) {
    // The value an ldc.i of this literal holds: through the double
    // immediate, then wrapped to the declared width.
    const std::int64_t wrapped =
        ir::WrapToDType(static_cast<std::int64_t>(static_cast<double>(v)), t);
    const auto [it, fresh] = pool_i_.try_emplace(wrapped, 0);
    if (fresh) {
      it->second = NewI();
      prog_.const_i.push_back({it->second, wrapped});
    }
    return Slot{false, it->second, t};
  }

  /// Converts a slot to the requested model type, emitting conversions as
  /// needed. Single-precision values are carried in double registers (see
  /// DESIGN.md deviation note).
  Slot CastTo(Slot s, DType want) {
    const bool want_float = ir::DTypeIsFloat(want);
    if (s.is_float == want_float && (s.type == want || want_float)) {
      s.type = want;
      return s;
    }
    if (want_float && !s.is_float) {
      Slot out{true, NewD(), want};
      EmitOp(Op::kCvtIToD, out.reg, s.reg);
      return out;
    }
    if (!want_float && s.is_float) {
      Slot out{false, NewI(), want};
      if (want == DType::kBool) {
        EmitOp(Op::kBoolD, out.reg, s.reg);
      } else {
        EmitOp(Op::kCvtDToI, out.reg, s.reg, 0, 0, 0, 0, want);
      }
      return out;
    }
    // int -> int rewrap (or int -> bool).
    Slot out{false, NewI(), want};
    if (want == DType::kBool) {
      EmitOp(Op::kBoolI, out.reg, s.reg);
    } else {
      EmitOp(Op::kWrapI, out.reg, s.reg, 0, 0, 0, 0, want);
    }
    return out;
  }

  Slot ToDouble(Slot s) { return CastTo(s, DType::kDouble); }

  /// Boolean view (ireg holding 0/1).
  int ToBool(Slot s) {
    if (!s.is_float && s.type == DType::kBool) return s.reg;
    const int out = NewI();
    EmitOp(s.is_float ? Op::kBoolD : Op::kBoolI, out, s.reg);
    return out;
  }

  /// Fresh register of the given type.
  Slot NewSlot(DType t) {
    if (ir::DTypeIsFloat(t)) return Slot{true, NewD(), t};
    return Slot{false, NewI(), t};
  }

  /// Copies src into dst (same register file required).
  void Move(const Slot& dst, const Slot& src) {
    assert(dst.is_float == src.is_float);
    EmitOp(dst.is_float ? Op::kMovD : Op::kMovI, dst.reg, src.reg);
  }

  // ---- dataflow bookkeeping --------------------------------------------------
  using ValueKey = std::tuple<const Model*, ir::BlockId, int>;

  void SetValue(const Model& sys, ir::BlockId b, int port, Slot s) {
    values_[ValueKey{&sys, b, port}] = s;
  }
  Slot GetValue(const Model& sys, ir::BlockId b, int port) const {
    auto it = values_.find(ValueKey{&sys, b, port});
    assert(it != values_.end() && "value not lowered yet");
    return it->second;
  }
  Slot InputOf(const Model& sys, const Block& b, int port) const {
    const ir::Wire* w = sys.DriverOf(b.id(), port);
    assert(w != nullptr);
    return GetValue(sys, w->src.block, w->src.port);
  }

  // ---- coverage helpers -------------------------------------------------------
  bool Instr() const { return opts_.model_instrumentation; }

  void EmitCov(int slot) { EmitOp(Op::kCov, 0, 0, 0, slot); }
  void EmitEdge() {
    if (opts_.edge_instrumentation) EmitOp(Op::kEdge, 0, 0, 0, NewEdge());
  }

  /// if (breg) { cov true_slot } else { cov false_slot } — the paper's
  /// mode (a) if/else instrumentation for one boolean signal, as the single
  /// instruction kCovIf.
  void EmitPolarityCov(int breg, int true_slot, int false_slot) {
    EmitOp(Op::kCovIf, 0, breg, 0, true_slot, false_slot);
  }

  /// One MCDC condition leaf as the single instruction kCovCond: polarity
  /// coverage of `breg`, its bit in the `vals` vector when true, and in the
  /// evaluated `mask` (-1: the decision has no mask register).
  void EmitConditionLeafCov(coverage::ConditionId c, int breg, int vals, int mask, int bit) {
    const std::int64_t value = ir::WrapToDType(std::int64_t{1} << bit, DType::kUInt32);
    EmitOp(Op::kCovCond, vals, breg, mask, sm_.spec.ConditionTrueSlot(c),
           sm_.spec.ConditionFalseSlot(c), static_cast<double>(value));
  }

  void EmitConditionCov(coverage::ConditionId c, int breg) {
    EmitPolarityCov(breg, sm_.spec.ConditionTrueSlot(c), sm_.spec.ConditionFalseSlot(c));
  }

  void EmitDecisionOutcomeCov(coverage::DecisionId d, int outcome) {
    EmitCov(sm_.spec.OutcomeSlot(d, outcome));
  }

  /// Lists a margin site (a-b, or -|a-b|) at the next instruction's pc. No
  /// code is emitted, so nothing may jump to that pc from further down.
  void AddMargin(coverage::DecisionId d, int ge_outcome, int lt_outcome, Slot a, Slot b,
                 vm::MarginSite::Kind kind = vm::MarginSite::Kind::kDiff) {
    prog_.margins.push_back({static_cast<std::int32_t>(Here()), d, ge_outcome, lt_outcome,
                             {a.is_float, a.reg}, {b.is_float, b.reg}, kind});
  }

  /// Memoized index of a block path in Program::block_names.
  std::int32_t BlockIndex(const std::string& bpath) {
    const auto [it, inserted] =
        block_index_.emplace(bpath, static_cast<std::int32_t>(prog_.block_names.size()));
    if (inserted) prog_.block_names.push_back(bpath);
    return it->second;
  }

  // ---- systems ---------------------------------------------------------------
  Status LowerSystem(const Model& sys, const std::string& path) {
    const auto& order = sm_.OrderOf(&sys);
    // Attribution save/restore around every block: a compound block's nested
    // LowerSystem re-enters here, so its glue (guard evaluation, region
    // jumps) books to the compound while inner blocks book to themselves.
    for (ir::BlockId id : order) {
      const Block& b = sys.block(id);
      const std::int32_t prev = cur_block_;
      cur_block_ = BlockIndex(path.empty() ? b.name() : path + "/" + b.name());
      const Status s = LowerBlock(sys, b, path);
      cur_block_ = prev;
      if (!s.ok()) return s;
    }
    // Update phase: delay-class blocks commit their next state at the end of
    // the system body (inside any enclosing conditional region).
    for (ir::BlockId id : order) {
      const Block& b = sys.block(id);
      const std::int32_t prev = cur_block_;
      cur_block_ = BlockIndex(path.empty() ? b.name() : path + "/" + b.name());
      EmitStateUpdate(sys, b);
      cur_block_ = prev;
    }
    return Status::Ok();
  }

  void EmitStateUpdate(const Model& sys, const Block& b) {
    switch (b.kind()) {
      case BlockKind::kUnitDelay:
      case BlockKind::kMemory: {
        const Slot in = CastTo(InputOf(sys, b, 0), b.out_type(0));
        const int slot = delay_state_.at(&b)[0];
        EmitOp(in.is_float ? Op::kStoreStateD : Op::kStoreStateI, 0, in.reg, 0, slot);
        break;
      }
      case BlockKind::kDelay: {
        const auto& slots = delay_state_.at(&b);
        // Shift register: s[n-1] <- s[n-2] <- ... <- s[0] <- input.
        const bool f = ir::DTypeIsFloat(b.out_type(0));
        const Op load = f ? Op::kLoadStateD : Op::kLoadStateI;
        const Op store = f ? Op::kStoreStateD : Op::kStoreStateI;
        const int tmp = f ? NewD() : NewI();
        for (std::size_t i = slots.size(); i > 1; --i) {
          EmitOp(load, tmp, 0, 0, slots[i - 2]);
          EmitOp(store, 0, tmp, 0, slots[i - 1]);
        }
        const Slot in = CastTo(InputOf(sys, b, 0), b.out_type(0));
        EmitOp(store, 0, in.reg, 0, slots[0]);
        break;
      }
      case BlockKind::kDiscreteIntegrator: {
        const int slot = delay_state_.at(&b)[0];
        const Slot u = ToDouble(InputOf(sys, b, 0));
        const int acc = NewD();
        EmitOp(Op::kLoadStateD, acc, 0, 0, slot);
        const int scaled = NewD();
        const Slot gain = ConstD(b.params().GetDouble("gain", 1.0));
        EmitOp(Op::kMulD, scaled, u.reg, gain.reg);
        EmitOp(Op::kAddD, acc, acc, scaled);
        if (b.params().Has("upper") || b.params().Has("lower")) {
          // Limited integrator: clamp with a 3-way decision (mode (d)).
          const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
          const Slot lo = ConstD(b.params().GetDouble("lower", -1e30));
          const Slot hi = ConstD(b.params().GetDouble("upper", 1e30));
          const int below = NewI();
          EmitOp(Op::kLtD, below, acc, lo.reg);
          const std::size_t jz1 = EmitJz(below);
          EmitEdge();
          if (Instr()) EmitDecisionOutcomeCov(d, 0);
          EmitOp(Op::kMovD, acc, lo.reg);
          const std::size_t jend1 = EmitJmp();
          Patch(jz1);
          const int above = NewI();
          EmitOp(Op::kGtD, above, acc, hi.reg);
          const std::size_t jz2 = EmitJz(above);
          EmitEdge();
          if (Instr()) EmitDecisionOutcomeCov(d, 2);
          EmitOp(Op::kMovD, acc, hi.reg);
          const std::size_t jend2 = EmitJmp();
          Patch(jz2);
          EmitEdge();
          if (Instr()) EmitDecisionOutcomeCov(d, 1);
          Patch(jend1);
          Patch(jend2);
        }
        EmitOp(Op::kStoreStateD, 0, acc, 0, slot);
        break;
      }
      default: break;
    }
  }

  // ---- blocks ------------------------------------------------------------------
  Status LowerBlock(const Model& sys, const Block& b, const std::string& path) {
    const std::string bpath = path.empty() ? b.name() : path + "/" + b.name();
    switch (b.kind()) {
      case BlockKind::kInport: {
        // Sub-model inports are pre-seeded by the enclosing compound.
        if (values_.count(ValueKey{&sys, b.id(), 0})) return Status::Ok();
        const auto field = static_cast<int>(b.params().GetInt("port", 0));
        const DType t = b.out_type(0);
        Slot s = NewSlot(t);
        EmitOp(s.is_float ? Op::kLoadInD : Op::kLoadInI, s.reg, 0, 0, field);
        SetValue(sys, b.id(), 0, s);
        return Status::Ok();
      }
      case BlockKind::kOutport: {
        if (&sys != sm_.root) return Status::Ok();  // read by the compound wrapper
        const auto port = static_cast<std::size_t>(b.params().GetInt("port", 0));
        const Slot in = InputOf(sys, b, 0);
        prog_.output_types[port] = in.type;
        EmitOp(in.is_float ? Op::kStoreOutD : Op::kStoreOutI, 0, in.reg, 0,
               static_cast<int>(port));
        return Status::Ok();
      }
      case BlockKind::kConstant: {
        const DType t = b.out_type(0);
        const double v = b.params().GetDouble("value", 0.0);
        Slot s = ir::DTypeIsFloat(t) ? ConstD(v)
                                     : ConstI(ir::WrapToDType(static_cast<std::int64_t>(v), t), t);
        s.type = t;
        SetValue(sys, b.id(), 0, s);
        return Status::Ok();
      }
      case BlockKind::kGain:
      case BlockKind::kBias: {
        const Slot in = ToDouble(InputOf(sys, b, 0));
        const double k = (b.kind() == BlockKind::kGain) ? b.params().GetDouble("gain", 1.0)
                                                        : b.params().GetDouble("bias", 0.0);
        const Slot kslot = ConstD(k);
        const int out = NewD();
        EmitOp(b.kind() == BlockKind::kGain ? Op::kMulD : Op::kAddD, out, in.reg, kslot.reg);
        SetValue(sys, b.id(), 0, CastTo(Slot{true, out, DType::kDouble}, b.out_type(0)));
        return Status::Ok();
      }
      case BlockKind::kSum: return LowerSum(sys, b);
      case BlockKind::kSubtract: return LowerArith2(sys, b, Op::kSubD, Op::kSubI);
      case BlockKind::kProduct: return LowerProduct(sys, b);
      case BlockKind::kDivide: {
        const Slot a = ToDouble(InputOf(sys, b, 0));
        const Slot c = ToDouble(InputOf(sys, b, 1));
        const int out = NewD();
        EmitOp(Op::kDivD, out, a.reg, c.reg);
        SetValue(sys, b.id(), 0, CastTo(Slot{true, out, DType::kDouble}, b.out_type(0)));
        return Status::Ok();
      }
      case BlockKind::kMod: return LowerArith2(sys, b, Op::kModD, Op::kModI);
      case BlockKind::kRem: return LowerArith2(sys, b, Op::kRemD, Op::kRemI);
      case BlockKind::kMin: return LowerMinMax(sys, b, /*is_min=*/true);
      case BlockKind::kMax: return LowerMinMax(sys, b, /*is_min=*/false);
      case BlockKind::kAbs: return LowerAbs(sys, b);
      case BlockKind::kUnaryMinus: {
        const Slot in = CastTo(InputOf(sys, b, 0), b.out_type(0));
        Slot out = NewSlot(b.out_type(0));
        EmitOp(out.is_float ? Op::kNegD : Op::kNegI, out.reg, in.reg, 0, 0, 0, 0, out.type);
        SetValue(sys, b.id(), 0, out);
        return Status::Ok();
      }
      case BlockKind::kSign: return LowerSign(sys, b);
      case BlockKind::kSqrt: return LowerUnaryD(sys, b, Op::kSqrtD);
      case BlockKind::kExp: return LowerUnaryD(sys, b, Op::kExpD);
      case BlockKind::kLog: return LowerUnaryD(sys, b, Op::kLogD);
      case BlockKind::kSin: return LowerUnaryD(sys, b, Op::kSinD);
      case BlockKind::kCos: return LowerUnaryD(sys, b, Op::kCosD);
      case BlockKind::kTan: return LowerUnaryD(sys, b, Op::kTanD);
      case BlockKind::kFloor: return LowerRounding(sys, b, Op::kFloorD);
      case BlockKind::kCeil: return LowerRounding(sys, b, Op::kCeilD);
      case BlockKind::kRound: return LowerRounding(sys, b, Op::kRoundD);
      case BlockKind::kAtan2:
      case BlockKind::kPow: {
        const Slot a = ToDouble(InputOf(sys, b, 0));
        const Slot c = ToDouble(InputOf(sys, b, 1));
        const int out = NewD();
        EmitOp(b.kind() == BlockKind::kAtan2 ? Op::kAtan2D : Op::kPowD, out, a.reg, c.reg);
        SetValue(sys, b.id(), 0, Slot{true, out, DType::kDouble});
        return Status::Ok();
      }
      case BlockKind::kSaturation: return LowerSaturation(sys, b);
      case BlockKind::kDeadZone: return LowerDeadZone(sys, b);
      case BlockKind::kRateLimiter: return LowerRateLimiter(sys, b, bpath);
      case BlockKind::kQuantizer: {
        const Slot u = ToDouble(InputOf(sys, b, 0));
        const Slot q = ConstD(b.params().GetDouble("interval", 1.0));
        const int t = NewD();
        EmitOp(Op::kDivD, t, u.reg, q.reg);
        EmitOp(Op::kRoundD, t, t);
        EmitOp(Op::kMulD, t, t, q.reg);
        SetValue(sys, b.id(), 0, CastTo(Slot{true, t, DType::kDouble}, b.out_type(0)));
        return Status::Ok();
      }
      case BlockKind::kRelay: return LowerRelay(sys, b, bpath);
      case BlockKind::kRelationalOp:
      case BlockKind::kCompareToConstant:
      case BlockKind::kCompareToZero: return LowerRelational(sys, b);
      case BlockKind::kLogicalAnd:
      case BlockKind::kLogicalOr:
      case BlockKind::kLogicalXor:
      case BlockKind::kLogicalNand:
      case BlockKind::kLogicalNor: return LowerLogical(sys, b);
      case BlockKind::kLogicalNot: {
        const int in = ToBool(InputOf(sys, b, 0));
        const int out = NewI();
        EmitOp(Op::kNotL, out, in);
        SetValue(sys, b.id(), 0, Slot{false, out, DType::kBool});
        return Status::Ok();
      }
      case BlockKind::kBitwiseAnd: return LowerBitwise(sys, b, Op::kAndBitsI);
      case BlockKind::kBitwiseOr: return LowerBitwise(sys, b, Op::kOrBitsI);
      case BlockKind::kBitwiseXor: return LowerBitwise(sys, b, Op::kXorBitsI);
      case BlockKind::kShiftLeft:
      case BlockKind::kShiftRight: {
        const Slot in = CastTo(InputOf(sys, b, 0), b.out_type(0));
        const Slot bits = ConstI(b.params().GetInt("bits", 1), DType::kInt32);
        Slot out = NewSlot(b.out_type(0));
        EmitOp(b.kind() == BlockKind::kShiftLeft ? Op::kShlI : Op::kShrI, out.reg, in.reg,
               bits.reg, 0, 0, 0, out.type);
        SetValue(sys, b.id(), 0, out);
        return Status::Ok();
      }
      case BlockKind::kSwitch: return LowerSwitch(sys, b);
      case BlockKind::kMultiportSwitch: return LowerMultiportSwitch(sys, b);
      case BlockKind::kMerge: return LowerMerge(sys, b);
      case BlockKind::kUnitDelay:
      case BlockKind::kMemory: {
        const DType t = b.out_type(0);
        const int slot = ir::DTypeIsFloat(t)
                             ? NewStateD(b.params().GetDouble("init", 0.0), t, bpath)
                             : NewStateI(b.params().GetDouble("init", 0.0), t, bpath);
        delay_state_[&b] = {slot};
        Slot out = NewSlot(t);
        EmitOp(out.is_float ? Op::kLoadStateD : Op::kLoadStateI, out.reg, 0, 0, slot);
        SetValue(sys, b.id(), 0, out);
        return Status::Ok();
      }
      case BlockKind::kDelay: {
        const DType t = b.out_type(0);
        const int n = static_cast<int>(b.params().GetInt("length", 1));
        if (n < 1) return Status::Error(b.name() + ": Delay length must be >= 1");
        const double init = b.params().GetDouble("init", 0.0);
        std::vector<int> slots;
        for (int i = 0; i < n; ++i) {
          slots.push_back(ir::DTypeIsFloat(t)
                              ? NewStateD(init, t, StrFormat("%s#%d", bpath.c_str(), i))
                              : NewStateI(init, t, StrFormat("%s#%d", bpath.c_str(), i)));
        }
        delay_state_[&b] = slots;
        Slot out = NewSlot(t);
        EmitOp(out.is_float ? Op::kLoadStateD : Op::kLoadStateI, out.reg, 0, 0, slots.back());
        SetValue(sys, b.id(), 0, out);
        return Status::Ok();
      }
      case BlockKind::kDiscreteIntegrator: {
        const int slot = NewStateD(b.params().GetDouble("init", 0.0), DType::kDouble, bpath);
        delay_state_[&b] = {slot};
        Slot out = NewSlot(DType::kDouble);
        EmitOp(Op::kLoadStateD, out.reg, 0, 0, slot);
        SetValue(sys, b.id(), 0, out);
        return Status::Ok();
      }
      case BlockKind::kCounterLimited: return LowerCounter(sys, b, bpath);
      case BlockKind::kEdgeDetector: return LowerEdgeDetector(sys, b, bpath);
      case BlockKind::kLookup1D: return LowerLookup(sys, b);
      case BlockKind::kDataTypeConversion: {
        SetValue(sys, b.id(), 0, CastTo(InputOf(sys, b, 0), b.out_type(0)));
        return Status::Ok();
      }
      case BlockKind::kSubsystem: return LowerSubsystem(sys, b, bpath);
      case BlockKind::kActionIf: return LowerActionIf(sys, b, bpath);
      case BlockKind::kActionSwitch: return LowerActionSwitch(sys, b, bpath);
      case BlockKind::kEnabledSubsystem: return LowerEnabled(sys, b, bpath);
      case BlockKind::kChart: return LowerChart(sys, b, bpath);
      case BlockKind::kExprFunc: return LowerExprFunc(sys, b);
    }
    return Status::Error("unhandled block kind in lowering");
  }

  // -- arithmetic families ------------------------------------------------
  Status LowerSum(const Model& sys, const Block& b) {
    const std::string signs = b.params().GetString("signs", "++");
    const DType t = b.out_type(0);
    if (ir::DTypeIsFloat(t)) {
      int acc = -1;
      for (std::size_t i = 0; i < signs.size(); ++i) {
        const Slot in = ToDouble(InputOf(sys, b, static_cast<int>(i)));
        if (acc < 0) {
          acc = NewD();
          if (signs[i] == '-') {
            EmitOp(Op::kNegD, acc, in.reg);
          } else {
            EmitOp(Op::kMovD, acc, in.reg);
          }
        } else {
          EmitOp(signs[i] == '-' ? Op::kSubD : Op::kAddD, acc, acc, in.reg);
        }
      }
      SetValue(sys, b.id(), 0, Slot{true, acc, t});
    } else {
      int acc = -1;
      for (std::size_t i = 0; i < signs.size(); ++i) {
        const Slot in = CastTo(InputOf(sys, b, static_cast<int>(i)), t);
        if (acc < 0) {
          acc = NewI();
          if (signs[i] == '-') {
            EmitOp(Op::kNegI, acc, in.reg, 0, 0, 0, 0, t);
          } else {
            EmitOp(Op::kMovI, acc, in.reg);
          }
        } else {
          EmitOp(signs[i] == '-' ? Op::kSubI : Op::kAddI, acc, acc, in.reg, 0, 0, 0, t);
        }
      }
      SetValue(sys, b.id(), 0, Slot{false, acc, t});
    }
    return Status::Ok();
  }

  Status LowerProduct(const Model& sys, const Block& b) {
    const std::string ops = b.params().GetString("ops", "**");
    const Slot first = ToDouble(InputOf(sys, b, 0));
    const int acc = NewD();
    if (ops[0] == '/') {
      const Slot one = ConstD(1.0);
      EmitOp(Op::kDivD, acc, one.reg, first.reg);
    } else {
      EmitOp(Op::kMovD, acc, first.reg);
    }
    for (std::size_t i = 1; i < ops.size(); ++i) {
      const Slot in = ToDouble(InputOf(sys, b, static_cast<int>(i)));
      EmitOp(ops[i] == '/' ? Op::kDivD : Op::kMulD, acc, acc, in.reg);
    }
    SetValue(sys, b.id(), 0, CastTo(Slot{true, acc, DType::kDouble}, b.out_type(0)));
    return Status::Ok();
  }

  Status LowerArith2(const Model& sys, const Block& b, Op dop, Op iop) {
    const DType t = b.out_type(0);
    if (ir::DTypeIsFloat(t)) {
      const Slot a = ToDouble(InputOf(sys, b, 0));
      const Slot c = ToDouble(InputOf(sys, b, 1));
      const int out = NewD();
      EmitOp(dop, out, a.reg, c.reg);
      SetValue(sys, b.id(), 0, Slot{true, out, t});
    } else {
      const Slot a = CastTo(InputOf(sys, b, 0), t);
      const Slot c = CastTo(InputOf(sys, b, 1), t);
      const int out = NewI();
      EmitOp(iop, out, a.reg, c.reg, 0, 0, 0, t);
      SetValue(sys, b.id(), 0, Slot{false, out, t});
    }
    return Status::Ok();
  }

  Status LowerUnaryD(const Model& sys, const Block& b, Op op) {
    const Slot in = ToDouble(InputOf(sys, b, 0));
    const int out = NewD();
    EmitOp(op, out, in.reg);
    SetValue(sys, b.id(), 0, Slot{true, out, DType::kDouble});
    return Status::Ok();
  }

  Status LowerRounding(const Model& sys, const Block& b, Op op) {
    const DType t = b.out_type(0);
    if (!ir::DTypeIsFloat(t)) {  // integers are already integral
      SetValue(sys, b.id(), 0, InputOf(sys, b, 0));
      return Status::Ok();
    }
    const Slot in = ToDouble(InputOf(sys, b, 0));
    const int out = NewD();
    EmitOp(op, out, in.reg);
    SetValue(sys, b.id(), 0, Slot{true, out, t});
    return Status::Ok();
  }

  /// Comparison of two slots in their promoted domain -> bool ireg.
  int Compare(Slot a, Slot c, const std::string& op) {
    const DType pt = ir::PromoteDTypes(a.type, c.type);
    const bool fl = ir::DTypeIsFloat(pt);
    const Slot ca = fl ? ToDouble(a) : CastTo(a, pt);
    const Slot cc = fl ? ToDouble(c) : CastTo(c, pt);
    const int out = NewI();
    Op o;
    if (op == "lt" || op == "<") o = fl ? Op::kLtD : Op::kLtI;
    else if (op == "le" || op == "<=") o = fl ? Op::kLeD : Op::kLeI;
    else if (op == "gt" || op == ">") o = fl ? Op::kGtD : Op::kGtI;
    else if (op == "ge" || op == ">=") o = fl ? Op::kGeD : Op::kGeI;
    else if (op == "eq" || op == "==") o = fl ? Op::kEqD : Op::kEqI;
    else o = fl ? Op::kNeD : Op::kNeI;
    EmitOp(o, out, ca.reg, cc.reg);
    return out;
  }

  Status LowerMinMax(const Model& sys, const Block& b, bool is_min) {
    const DType t = b.out_type(0);
    const Slot a = CastTo(InputOf(sys, b, 0), t);
    const Slot c = CastTo(InputOf(sys, b, 1), t);
    if (!Instr()) {
      // Branch-free (what -O2 produces): no decision observable at code level.
      Slot out = NewSlot(t);
      const Op op = out.is_float ? (is_min ? Op::kMinD : Op::kMaxD)
                                 : (is_min ? Op::kMinI : Op::kMaxI);
      EmitOp(op, out.reg, a.reg, c.reg, 0, 0, 0, t);
      SetValue(sys, b.id(), 0, out);
      return Status::Ok();
    }
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int cmp = Compare(a, c, is_min ? "le" : "ge");
    AddMargin(d, 0, 1, is_min ? c : a, is_min ? a : c);
    Slot out = NewSlot(t);
    const std::size_t jz = EmitJz(cmp);
    EmitDecisionOutcomeCov(d, 0);
    Move(out, a);
    const std::size_t jend = EmitJmp();
    Patch(jz);
    EmitDecisionOutcomeCov(d, 1);
    Move(out, c);
    Patch(jend);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerAbs(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const Slot in = CastTo(InputOf(sys, b, 0), t);
    if (ir::DTypeIsFloat(t) || !Instr()) {
      Slot out = NewSlot(t);
      EmitOp(out.is_float ? Op::kAbsD : Op::kAbsI, out.reg, in.reg, 0, 0, 0, 0, t);
      SetValue(sys, b.id(), 0, out);
      return Status::Ok();
    }
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const Slot zero = ConstI(0, t);
    const int neg = NewI();
    EmitOp(Op::kLtI, neg, in.reg, zero.reg);
    Slot out = NewSlot(t);
    const std::size_t jz = EmitJz(neg);
    EmitDecisionOutcomeCov(d, 0);
    EmitOp(Op::kNegI, out.reg, in.reg, 0, 0, 0, 0, t);
    const std::size_t jend = EmitJmp();
    Patch(jz);
    EmitDecisionOutcomeCov(d, 1);
    EmitOp(Op::kMovI, out.reg, in.reg);
    Patch(jend);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerSign(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const Slot in = CastTo(InputOf(sys, b, 0), t);
    if (!Instr()) {
      Slot out = NewSlot(t);
      EmitOp(out.is_float ? Op::kSignD : Op::kSignI, out.reg, in.reg, 0, 0, 0, 0, t);
      SetValue(sys, b.id(), 0, out);
      return Status::Ok();
    }
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    Slot out = NewSlot(t);
    Slot zero = out.is_float ? ConstD(0.0) : ConstI(0, t);
    const int pos = NewI();
    EmitOp(out.is_float ? Op::kGtD : Op::kGtI, pos, in.reg, zero.reg);
    const std::size_t jz1 = EmitJz(pos);
    EmitDecisionOutcomeCov(d, 0);
    if (out.is_float) EmitOp(Op::kLoadConstD, out.reg, 0, 0, 0, 0, 1.0);
    else EmitOp(Op::kLoadConstI, out.reg, 0, 0, 0, 0, 1.0, t);
    const std::size_t jend1 = EmitJmp();
    Patch(jz1);
    const int negr = NewI();
    EmitOp(out.is_float ? Op::kLtD : Op::kLtI, negr, in.reg, zero.reg);
    const std::size_t jz2 = EmitJz(negr);
    EmitDecisionOutcomeCov(d, 1);
    if (out.is_float) EmitOp(Op::kLoadConstD, out.reg, 0, 0, 0, 0, -1.0);
    else EmitOp(Op::kLoadConstI, out.reg, 0, 0, 0, 0, -1.0, t);
    const std::size_t jend2 = EmitJmp();
    Patch(jz2);
    EmitDecisionOutcomeCov(d, 2);
    if (out.is_float) EmitOp(Op::kLoadConstD, out.reg, 0, 0, 0, 0, 0.0);
    else EmitOp(Op::kLoadConstI, out.reg, 0, 0, 0, 0, 0.0, t);
    Patch(jend1);
    Patch(jend2);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerSaturation(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const Slot u = CastTo(InputOf(sys, b, 0), t);
    const double lo_v = b.params().GetDouble("lower", 0.0);
    const double hi_v = b.params().GetDouble("upper", 1.0);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    Slot out = NewSlot(t);
    Slot lo = out.is_float ? ConstD(lo_v) : ConstI(static_cast<std::int64_t>(lo_v), t);
    Slot hi = out.is_float ? ConstD(hi_v) : ConstI(static_cast<std::int64_t>(hi_v), t);
    AddMargin(d, 1, 0, u, lo);
    AddMargin(d, 2, 1, u, hi);
    const int below = NewI();
    EmitOp(out.is_float ? Op::kLtD : Op::kLtI, below, u.reg, lo.reg);
    const std::size_t jz1 = EmitJz(below);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    Move(out, lo);
    const std::size_t jend1 = EmitJmp();
    Patch(jz1);
    const int above = NewI();
    EmitOp(out.is_float ? Op::kGtD : Op::kGtI, above, u.reg, hi.reg);
    const std::size_t jz2 = EmitJz(above);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 2);
    Move(out, hi);
    const std::size_t jend2 = EmitJmp();
    Patch(jz2);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    Move(out, u);
    Patch(jend1);
    Patch(jend2);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerDeadZone(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const Slot u = ToDouble(InputOf(sys, b, 0));
    const Slot start = ConstD(b.params().GetDouble("start", -0.5));
    const Slot end = ConstD(b.params().GetDouble("end", 0.5));
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    AddMargin(d, 1, 0, u, start);
    AddMargin(d, 2, 1, u, end);
    const int out = NewD();
    const int below = NewI();
    EmitOp(Op::kLtD, below, u.reg, start.reg);
    const std::size_t jz1 = EmitJz(below);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    EmitOp(Op::kSubD, out, u.reg, start.reg);
    const std::size_t jend1 = EmitJmp();
    Patch(jz1);
    const int above = NewI();
    EmitOp(Op::kGtD, above, u.reg, end.reg);
    const std::size_t jz2 = EmitJz(above);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 2);
    EmitOp(Op::kSubD, out, u.reg, end.reg);
    const std::size_t jend2 = EmitJmp();
    Patch(jz2);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    EmitOp(Op::kLoadConstD, out, 0, 0, 0, 0, 0.0);
    Patch(jend1);
    Patch(jend2);
    SetValue(sys, b.id(), 0, CastTo(Slot{true, out, DType::kDouble}, t));
    return Status::Ok();
  }

  Status LowerRateLimiter(const Model& sys, const Block& b, const std::string& bpath) {
    const Slot u = ToDouble(InputOf(sys, b, 0));
    const double rising = b.params().GetDouble("rising", 1.0);
    const double falling = b.params().GetDouble("falling", -1.0);
    const int slot = NewStateD(b.params().GetDouble("init", 0.0), DType::kDouble, bpath);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int prev = NewD();
    EmitOp(Op::kLoadStateD, prev, 0, 0, slot);
    const int delta = NewD();
    EmitOp(Op::kSubD, delta, u.reg, prev);
    const Slot rise = ConstD(rising);
    const Slot fall = ConstD(falling);
    AddMargin(d, 0, 1, Slot{true, delta, DType::kDouble}, rise);
    const int out = NewD();
    const int over = NewI();
    EmitOp(Op::kGtD, over, delta, rise.reg);
    const std::size_t jz1 = EmitJz(over);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    EmitOp(Op::kAddD, out, prev, rise.reg);
    const std::size_t jend1 = EmitJmp();
    Patch(jz1);
    const int under = NewI();
    EmitOp(Op::kLtD, under, delta, fall.reg);
    const std::size_t jz2 = EmitJz(under);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 2);
    EmitOp(Op::kAddD, out, prev, fall.reg);
    const std::size_t jend2 = EmitJmp();
    Patch(jz2);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    EmitOp(Op::kMovD, out, u.reg);
    Patch(jend1);
    Patch(jend2);
    EmitOp(Op::kStoreStateD, 0, out, 0, slot);
    SetValue(sys, b.id(), 0, Slot{true, out, DType::kDouble});
    return Status::Ok();
  }

  Status LowerRelay(const Model& sys, const Block& b, const std::string& bpath) {
    const Slot u = ToDouble(InputOf(sys, b, 0));
    const Slot on_pt = ConstD(b.params().GetDouble("on_point", 1.0));
    const Slot off_pt = ConstD(b.params().GetDouble("off_point", 0.0));
    const int slot = NewStateI(b.params().GetDouble("init", 0.0), DType::kBool, bpath);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int on = NewI();
    EmitOp(Op::kLoadStateI, on, 0, 0, slot);
    // Hysteresis update.
    const std::size_t jz = EmitJz(on);
    {  // currently on: turn off when u <= off_point
      const int le = NewI();
      EmitOp(Op::kLeD, le, u.reg, off_pt.reg);
      const std::size_t skip = EmitJz(le);
      EmitOp(Op::kLoadConstI, on, 0, 0, 0, 0, 0.0, DType::kBool);
      Patch(skip);
    }
    const std::size_t jend = EmitJmp();
    Patch(jz);
    {  // currently off: turn on when u >= on_point
      const int ge = NewI();
      EmitOp(Op::kGeD, ge, u.reg, on_pt.reg);
      const std::size_t skip = EmitJz(ge);
      EmitOp(Op::kLoadConstI, on, 0, 0, 0, 0, 1.0, DType::kBool);
      Patch(skip);
    }
    Patch(jend);
    EmitOp(Op::kStoreStateI, 0, on, 0, slot);
    AddMargin(d, 0, 1, u, on_pt);
    const int out = NewD();
    const std::size_t jz2 = EmitJz(on);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    EmitOp(Op::kLoadConstD, out, 0, 0, 0, 0, b.params().GetDouble("on_value", 1.0));
    const std::size_t jend2 = EmitJmp();
    Patch(jz2);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    EmitOp(Op::kLoadConstD, out, 0, 0, 0, 0, b.params().GetDouble("off_value", 0.0));
    Patch(jend2);
    SetValue(sys, b.id(), 0, Slot{true, out, DType::kDouble});
    return Status::Ok();
  }

  Status LowerRelational(const Model& sys, const Block& b) {
    const std::string op = b.params().GetString("op", "lt");
    Slot a = InputOf(sys, b, 0);
    Slot c;
    if (b.kind() == BlockKind::kRelationalOp) {
      c = InputOf(sys, b, 1);
    } else if (b.kind() == BlockKind::kCompareToConstant) {
      const double v = b.params().GetDouble("value", 0.0);
      // A fractional threshold against an integer signal must compare in the
      // floating domain, as the generated C would.
      const bool fractional = v != std::floor(v);
      c = (a.is_float || fractional) ? ConstD(v) : ConstI(static_cast<std::int64_t>(v), a.type);
    } else {
      c = a.is_float ? ConstD(0.0) : ConstI(0, a.type);
    }
    const int result = Compare(a, c, op);
    if (Instr()) EmitConditionCov(sm_.ConditionAt(&b, 0), result);
    SetValue(sys, b.id(), 0, Slot{false, result, DType::kBool});
    return Status::Ok();
  }

  Status LowerLogical(const Model& sys, const Block& b) {
    const int n = b.num_inputs();
    const coverage::DecisionId d = Instr() ? sm_.DecisionAt(&b, 0) : -1;
    std::vector<int> bools;
    const int vals = NewI();
    if (Instr()) EmitOp(Op::kLoadConstI, vals, 0, 0, 0, 0, 0.0, DType::kUInt32);
    for (int i = 0; i < n; ++i) {
      const int bi = ToBool(InputOf(sys, b, i));
      bools.push_back(bi);
      if (Instr()) {
        // Mode (a): if/else instrumentation on every boolean input, plus
        // MCDC vector accumulation.
        EmitConditionLeafCov(sm_.ConditionAt(&b, i + 1), bi, vals, /*mask=*/-1, i);
      }
    }
    // Combine branch-free (the paper's observation: no jump instructions for
    // boolean operators in optimized code).
    int acc = NewI();
    EmitOp(Op::kMovI, acc, bools[0]);
    for (int i = 1; i < n; ++i) {
      Op op = Op::kAndBitsI;
      if (b.kind() == BlockKind::kLogicalOr || b.kind() == BlockKind::kLogicalNor) {
        op = Op::kOrBitsI;
      } else if (b.kind() == BlockKind::kLogicalXor) {
        op = Op::kXorBitsI;
      }
      EmitOp(op, acc, acc, bools[i], 0, 0, 0, DType::kBool);
    }
    if (b.kind() == BlockKind::kLogicalNand || b.kind() == BlockKind::kLogicalNor) {
      const int inv = NewI();
      EmitOp(Op::kNotL, inv, acc);
      acc = inv;
    }
    if (Instr()) {
      const Slot mask = ConstI((1LL << n) - 1, DType::kUInt32);
      EmitOp(Op::kMcdcEval, 0, vals, mask.reg, d, acc);
      EmitPolarityCov(acc, sm_.spec.OutcomeSlot(d, 0), sm_.spec.OutcomeSlot(d, 1));
    }
    SetValue(sys, b.id(), 0, Slot{false, acc, DType::kBool});
    return Status::Ok();
  }

  Status LowerBitwise(const Model& sys, const Block& b, Op op) {
    const DType t = b.out_type(0);
    const Slot a = CastTo(InputOf(sys, b, 0), t);
    const Slot c = CastTo(InputOf(sys, b, 1), t);
    const int out = NewI();
    EmitOp(op, out, a.reg, c.reg, 0, 0, 0, t);
    SetValue(sys, b.id(), 0, Slot{false, out, t});
    return Status::Ok();
  }

  Status LowerSwitch(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const Slot in0 = InputOf(sys, b, 0);
    const Slot ctrl = InputOf(sys, b, 1);
    const Slot in2 = InputOf(sys, b, 2);
    const std::string criteria = b.params().GetString("criteria", "ge");
    const double thr = b.params().GetDouble("threshold", 0.0);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    int cond;
    if (criteria == "ne") {
      Slot zero = ctrl.is_float ? ConstD(0.0) : ConstI(0, ctrl.type);
      cond = Compare(ctrl, zero, "ne");
    } else {
      // A fractional threshold against an integer control compares in the
      // floating domain (generated C promotes the operand).
      const bool fractional = thr != std::floor(thr);
      Slot th = (ctrl.is_float || fractional)
                    ? ConstD(thr)
                    : ConstI(static_cast<std::int64_t>(thr), ctrl.type);
      cond = Compare(ctrl, th, criteria);
      AddMargin(d, 0, 1, ctrl, th);
    }
    Slot out = NewSlot(t);
    const std::size_t jz = EmitJz(cond);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    Move(out, CastTo(in0, t));
    const std::size_t jend = EmitJmp();
    Patch(jz);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    Move(out, CastTo(in2, t));
    Patch(jend);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerMultiportSwitch(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const int cases = static_cast<int>(b.params().GetInt("cases", 2));
    const Slot idx = CastTo(InputOf(sys, b, 0), DType::kInt32);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    Slot out = NewSlot(t);
    std::vector<std::size_t> ends;
    for (int i = 0; i < cases - 1; ++i) {
      const Slot k = ConstI(i + 1, DType::kInt32);  // 1-based port selection
      const int eq = NewI();
      EmitOp(Op::kEqI, eq, idx.reg, k.reg);
      const std::size_t jz = EmitJz(eq);
      EmitEdge();
      if (Instr()) EmitDecisionOutcomeCov(d, i);
      Move(out, CastTo(InputOf(sys, b, 1 + i), t));
      ends.push_back(EmitJmp());
      Patch(jz);
    }
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, cases - 1);
    Move(out, CastTo(InputOf(sys, b, cases), t));
    PatchAll(ends);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerMerge(const Model& sys, const Block& b) {
    const DType t = b.out_type(0);
    const int n = b.num_inputs();
    Slot out = NewSlot(t);
    std::vector<std::size_t> ends;
    for (int i = 0; i < n - 1; ++i) {
      const Slot in = InputOf(sys, b, i);
      const int nz = ToBool(in);
      const std::size_t jz = EmitJz(nz);
      Move(out, CastTo(in, t));
      ends.push_back(EmitJmp());
      Patch(jz);
    }
    Move(out, CastTo(InputOf(sys, b, n - 1), t));
    PatchAll(ends);
    SetValue(sys, b.id(), 0, out);
    return Status::Ok();
  }

  Status LowerCounter(const Model& sys, const Block& b, const std::string& bpath) {
    const DType t = b.out_type(0);
    const int limit = static_cast<int>(b.params().GetInt("limit", 10));
    const int slot = NewStateI(b.params().GetDouble("init", 0.0), t, bpath);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int enable = ToBool(InputOf(sys, b, 0));
    const int count = NewI();
    EmitOp(Op::kLoadStateI, count, 0, 0, slot);
    const std::size_t skip = EmitJz(enable);
    const Slot lim = ConstI(limit, t);
    const int wrap = NewI();
    EmitOp(Op::kGeI, wrap, count, lim.reg);
    const std::size_t jz = EmitJz(wrap);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    EmitOp(Op::kLoadConstI, count, 0, 0, 0, 0, 0.0, t);
    const std::size_t jend = EmitJmp();
    Patch(jz);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    const Slot one = ConstI(1, t);
    EmitOp(Op::kAddI, count, count, one.reg, 0, 0, 0, t);
    Patch(jend);
    EmitOp(Op::kStoreStateI, 0, count, 0, slot);
    Patch(skip);
    SetValue(sys, b.id(), 0, Slot{false, count, t});
    return Status::Ok();
  }

  Status LowerEdgeDetector(const Model& sys, const Block& b, const std::string& bpath) {
    const std::string edge = b.params().GetString("edge", "rising");
    const int slot = NewStateI(0.0, DType::kBool, bpath);
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int u = ToBool(InputOf(sys, b, 0));
    const int prev = NewI();
    EmitOp(Op::kLoadStateI, prev, 0, 0, slot);
    const int nprev = NewI();
    EmitOp(Op::kNotL, nprev, prev);
    const int nu = NewI();
    EmitOp(Op::kNotL, nu, u);
    const int out = NewI();
    if (edge == "falling") {
      EmitOp(Op::kAndBitsI, out, nu, prev, 0, 0, 0, DType::kBool);
    } else if (edge == "either") {
      EmitOp(Op::kXorBitsI, out, u, prev, 0, 0, 0, DType::kBool);
    } else {  // rising
      EmitOp(Op::kAndBitsI, out, u, nprev, 0, 0, 0, DType::kBool);
    }
    EmitOp(Op::kStoreStateI, 0, u, 0, slot);
    if (Instr()) {
      EmitPolarityCov(out, sm_.spec.OutcomeSlot(d, 0), sm_.spec.OutcomeSlot(d, 1));
      EmitConditionCov(sm_.ConditionAt(&b, 1), out);
    }
    SetValue(sys, b.id(), 0, Slot{false, out, DType::kBool});
    return Status::Ok();
  }

  Status LowerLookup(const Model& sys, const Block& b) {
    const auto bp = b.params().GetList("breakpoints");
    const auto tb = b.params().GetList("table");
    if (bp.size() < 2 || bp.size() != tb.size()) {
      return Status::Error(b.name() + ": Lookup1D needs matching breakpoints/table, size >= 2");
    }
    const Slot u = ToDouble(InputOf(sys, b, 0));
    const int out = NewD();
    std::vector<std::size_t> ends;
    // Clamp below.
    {
      const Slot b0 = ConstD(bp.front());
      const int lt = NewI();
      EmitOp(Op::kLeD, lt, u.reg, b0.reg);
      const std::size_t jz = EmitJz(lt);
      EmitOp(Op::kLoadConstD, out, 0, 0, 0, 0, tb.front());
      ends.push_back(EmitJmp());
      Patch(jz);
    }
    // Interior segments.
    for (std::size_t i = 1; i + 1 < bp.size(); ++i) {
      const Slot bi = ConstD(bp[i]);
      const int lt = NewI();
      EmitOp(Op::kLeD, lt, u.reg, bi.reg);
      const std::size_t jz = EmitJz(lt);
      EmitSegment(u.reg, out, bp[i - 1], bp[i], tb[i - 1], tb[i]);
      ends.push_back(EmitJmp());
      Patch(jz);
    }
    // Last segment + clamp above.
    {
      const std::size_t n = bp.size();
      const Slot bn = ConstD(bp[n - 1]);
      const int lt = NewI();
      EmitOp(Op::kLeD, lt, u.reg, bn.reg);
      const std::size_t jz = EmitJz(lt);
      EmitSegment(u.reg, out, bp[n - 2], bp[n - 1], tb[n - 2], tb[n - 1]);
      const std::size_t jend = EmitJmp();
      Patch(jz);
      EmitOp(Op::kLoadConstD, out, 0, 0, 0, 0, tb.back());
      Patch(jend);
    }
    PatchAll(ends);
    SetValue(sys, b.id(), 0, Slot{true, out, DType::kDouble});
    return Status::Ok();
  }

  void EmitSegment(int ureg, int out, double x0, double x1, double y0, double y1) {
    const double slope = (x1 == x0) ? 0.0 : (y1 - y0) / (x1 - x0);
    const Slot sx0 = ConstD(x0);
    const Slot sslope = ConstD(slope);
    const Slot sy0 = ConstD(y0);
    const int t = NewD();
    EmitOp(Op::kSubD, t, ureg, sx0.reg);
    EmitOp(Op::kMulD, t, t, sslope.reg);
    EmitOp(Op::kAddD, out, t, sy0.reg);
  }

  // -- compound blocks --------------------------------------------------------
  /// Seeds a sub-model's inports with the compound's data inputs.
  void SeedSubInports(const Model& sys, const Block& b, const Model& sub, int data_offset) {
    const auto inports = sub.Inports();
    for (std::size_t i = 0; i < inports.size(); ++i) {
      const Block& ip = sub.block(inports[i]);
      const Slot s = CastTo(InputOf(sys, b, data_offset + static_cast<int>(i)), ip.out_type(0));
      SetValue(sub, ip.id(), 0, s);
    }
  }

  /// Copies a sub-model's outport drivers into the compound's output regs.
  void StoreSubOutputs(const Model& sub, const std::vector<Slot>& outs) {
    const auto outports = sub.Outports();
    for (std::size_t i = 0; i < outports.size(); ++i) {
      const ir::Wire* w = sub.DriverOf(outports[i], 0);
      const Slot s = CastTo(GetValue(sub, w->src.block, w->src.port), outs[i].type);
      Move(outs[i], s);
    }
  }

  std::vector<Slot> MakeOutputRegs(const Block& b) {
    std::vector<Slot> outs;
    for (int i = 0; i < b.num_outputs(); ++i) outs.push_back(NewSlot(b.out_type(i)));
    return outs;
  }

  void PublishOutputs(const Model& sys, const Block& b, const std::vector<Slot>& outs) {
    for (std::size_t i = 0; i < outs.size(); ++i) {
      SetValue(sys, b.id(), static_cast<int>(i), outs[i]);
    }
  }

  Status LowerSubsystem(const Model& sys, const Block& b, const std::string& bpath) {
    const Model& sub = *b.subs()[0];
    SeedSubInports(sys, b, sub, 0);
    if (Status s = LowerSystem(sub, bpath); !s.ok()) return s;
    auto outs = MakeOutputRegs(b);
    StoreSubOutputs(sub, outs);
    PublishOutputs(sys, b, outs);
    return Status::Ok();
  }

  Status LowerActionIf(const Model& sys, const Block& b, const std::string& bpath) {
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int cond = ToBool(InputOf(sys, b, 0));
    auto outs = MakeOutputRegs(b);
    const std::size_t jz = EmitJz(cond);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    {
      const Model& then_sub = *b.subs()[0];
      SeedSubInports(sys, b, then_sub, 1);
      if (Status s = LowerSystem(then_sub, bpath + ".then"); !s.ok()) return s;
      StoreSubOutputs(then_sub, outs);
    }
    const std::size_t jend = EmitJmp();
    Patch(jz);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    {
      const Model& else_sub = *b.subs()[1];
      SeedSubInports(sys, b, else_sub, 1);
      if (Status s = LowerSystem(else_sub, bpath + ".else"); !s.ok()) return s;
      StoreSubOutputs(else_sub, outs);
    }
    Patch(jend);
    PublishOutputs(sys, b, outs);
    return Status::Ok();
  }

  Status LowerActionSwitch(const Model& sys, const Block& b, const std::string& bpath) {
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const int n_subs = static_cast<int>(b.subs().size());  // K cases + default
    const Slot idx = CastTo(InputOf(sys, b, 0), DType::kInt32);
    auto outs = MakeOutputRegs(b);
    std::vector<std::size_t> ends;
    for (int i = 0; i < n_subs - 1; ++i) {
      const Slot k = ConstI(i + 1, DType::kInt32);
      const int eq = NewI();
      EmitOp(Op::kEqI, eq, idx.reg, k.reg);
      const std::size_t jz = EmitJz(eq);
      EmitEdge();
      if (Instr()) EmitDecisionOutcomeCov(d, i);
      const Model& sub = *b.subs()[static_cast<std::size_t>(i)];
      SeedSubInports(sys, b, sub, 1);
      if (Status s = LowerSystem(sub, StrFormat("%s.case%d", bpath.c_str(), i)); !s.ok()) return s;
      StoreSubOutputs(sub, outs);
      ends.push_back(EmitJmp());
      Patch(jz);
    }
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, n_subs - 1);
    {
      const Model& sub = *b.subs().back();
      SeedSubInports(sys, b, sub, 1);
      if (Status s = LowerSystem(sub, bpath + ".default"); !s.ok()) return s;
      StoreSubOutputs(sub, outs);
    }
    PatchAll(ends);
    PublishOutputs(sys, b, outs);
    return Status::Ok();
  }

  Status LowerEnabled(const Model& sys, const Block& b, const std::string& bpath) {
    const coverage::DecisionId d = sm_.DecisionAt(&b, 0);
    const Model& sub = *b.subs()[0];
    const double init = b.params().GetDouble("init", 0.0);
    // Outputs live in state slots so they hold their value while disabled.
    std::vector<Slot> outs;
    std::vector<int> slots;
    for (int i = 0; i < b.num_outputs(); ++i) {
      const DType t = b.out_type(i);
      const int slot = ir::DTypeIsFloat(t)
                           ? NewStateD(init, t, StrFormat("%s.y%d", bpath.c_str(), i))
                           : NewStateI(init, t, StrFormat("%s.y%d", bpath.c_str(), i));
      slots.push_back(slot);
      outs.push_back(NewSlot(t));
    }
    const int enable = ToBool(InputOf(sys, b, 0));
    const std::size_t jz = EmitJz(enable);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 0);
    SeedSubInports(sys, b, sub, 1);
    if (Status s = LowerSystem(sub, bpath); !s.ok()) return s;
    {
      const auto outports = sub.Outports();
      for (std::size_t i = 0; i < outports.size(); ++i) {
        const ir::Wire* w = sub.DriverOf(outports[i], 0);
        const Slot s = CastTo(GetValue(sub, w->src.block, w->src.port), outs[i].type);
        EmitOp(s.is_float ? Op::kStoreStateD : Op::kStoreStateI, 0, s.reg, 0, slots[i]);
      }
    }
    const std::size_t jend = EmitJmp();
    Patch(jz);
    EmitEdge();
    if (Instr()) EmitDecisionOutcomeCov(d, 1);
    Patch(jend);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      EmitOp(outs[i].is_float ? Op::kLoadStateD : Op::kLoadStateI, outs[i].reg, 0, 0, slots[i]);
    }
    PublishOutputs(sys, b, outs);
    return Status::Ok();
  }

  // -- mex lowering ------------------------------------------------------------
  struct MexEnv {
    std::map<std::string, int> vars;  // name -> dreg
  };

  /// Arithmetic-context expression -> dreg.
  int LowerMexExpr(const Expr& e, MexEnv& env) {
    switch (e.kind) {
      case ExprKind::kNumber: return ConstD(e.number).reg;
      case ExprKind::kVar: {
        auto it = env.vars.find(e.name);
        assert(it != env.vars.end());
        return it->second;
      }
      case ExprKind::kUnary: {
        if (e.op == "!") {
          const int b = LowerMexBool(*e.args[0], env);
          const int nb = NewI();
          EmitOp(Op::kNotL, nb, b);
          const int r = NewD();
          EmitOp(Op::kCvtIToD, r, nb);
          return r;
        }
        const int a = LowerMexExpr(*e.args[0], env);
        const int r = NewD();
        EmitOp(Op::kNegD, r, a);
        return r;
      }
      case ExprKind::kBinary: {
        if (blocks::mex::IsBooleanOp(e.op)) {
          const int b = LowerMexBool(e, env);
          const int r = NewD();
          EmitOp(Op::kCvtIToD, r, b);
          return r;
        }
        const int a = LowerMexExpr(*e.args[0], env);
        const int c = LowerMexExpr(*e.args[1], env);
        const int r = NewD();
        Op op = Op::kAddD;
        if (e.op == "-") op = Op::kSubD;
        else if (e.op == "*") op = Op::kMulD;
        else if (e.op == "/") op = Op::kDivD;
        else if (e.op == "%") op = Op::kModD;
        EmitOp(op, r, a, c);
        return r;
      }
      case ExprKind::kCall: return LowerMexCall(e, env);
    }
    return 0;
  }

  int LowerMexCall(const Expr& e, MexEnv& env) {
    std::vector<int> args;
    args.reserve(e.args.size());
    for (const auto& a : e.args) args.push_back(LowerMexExpr(*a, env));
    const int r = NewD();
    if (e.name == "abs") EmitOp(Op::kAbsD, r, args[0]);
    else if (e.name == "min") EmitOp(Op::kMinD, r, args[0], args[1]);
    else if (e.name == "max") EmitOp(Op::kMaxD, r, args[0], args[1]);
    else if (e.name == "floor") EmitOp(Op::kFloorD, r, args[0]);
    else if (e.name == "ceil") EmitOp(Op::kCeilD, r, args[0]);
    else if (e.name == "round") EmitOp(Op::kRoundD, r, args[0]);
    else if (e.name == "sqrt") EmitOp(Op::kSqrtD, r, args[0]);
    else if (e.name == "exp") EmitOp(Op::kExpD, r, args[0]);
    else if (e.name == "log") EmitOp(Op::kLogD, r, args[0]);
    else if (e.name == "sin") EmitOp(Op::kSinD, r, args[0]);
    else if (e.name == "cos") EmitOp(Op::kCosD, r, args[0]);
    else if (e.name == "tan") EmitOp(Op::kTanD, r, args[0]);
    else if (e.name == "atan2") EmitOp(Op::kAtan2D, r, args[0], args[1]);
    else if (e.name == "pow") EmitOp(Op::kPowD, r, args[0], args[1]);
    else if (e.name == "mod") EmitOp(Op::kModD, r, args[0], args[1]);
    else if (e.name == "rem") EmitOp(Op::kRemD, r, args[0], args[1]);
    else if (e.name == "sign") EmitOp(Op::kSignD, r, args[0]);
    return r;
  }

  /// Plain boolean value of an expression (no condition instrumentation).
  int LowerMexBool(const Expr& e, MexEnv& env) {
    if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
      // Short-circuit.
      const int res = NewI();
      const int lhs = LowerMexBool(*e.args[0], env);
      EmitOp(Op::kMovI, res, lhs);
      const std::size_t skip = (e.op == "&&") ? EmitJz(lhs) : EmitJnz(lhs);
      const int rhs = LowerMexBool(*e.args[1], env);
      EmitOp(Op::kMovI, res, rhs);
      Patch(skip);
      return res;
    }
    if (e.kind == ExprKind::kUnary && e.op == "!") {
      const int inner = LowerMexBool(*e.args[0], env);
      const int r = NewI();
      EmitOp(Op::kNotL, r, inner);
      return r;
    }
    if (e.kind == ExprKind::kBinary && blocks::mex::IsBooleanOp(e.op)) {
      const int a = LowerMexExpr(*e.args[0], env);
      const int c = LowerMexExpr(*e.args[1], env);
      if (&e == margin_guard_.leaf) {
        // How far the operands are from the boundary; -|a-c| for ==/!=
        // (>= 0, i.e. == 0, means equal).
        const Slot sa{true, a, DType::kDouble};
        const Slot sc{true, c, DType::kDouble};
        const coverage::DecisionId d = margin_guard_.decision;
        if (e.op == "<" || e.op == "<=") {
          AddMargin(d, 0, 1, sc, sa);
        } else if (e.op == ">" || e.op == ">=") {
          AddMargin(d, 0, 1, sa, sc);
        } else {
          AddMargin(d, e.op == "==" ? 0 : 1, e.op == "==" ? 1 : 0, sa, sc,
                    vm::MarginSite::Kind::kNegAbsDiff);
        }
      }
      const int r = NewI();
      Op op = Op::kLtD;
      if (e.op == "<=") op = Op::kLeD;
      else if (e.op == ">") op = Op::kGtD;
      else if (e.op == ">=") op = Op::kGeD;
      else if (e.op == "==") op = Op::kEqD;
      else if (e.op == "!=") op = Op::kNeD;
      EmitOp(op, r, a, c);
      return r;
    }
    const int v = LowerMexExpr(e, env);
    const int r = NewI();
    EmitOp(Op::kBoolD, r, v);
    return r;
  }

  /// Boolean *decision context*: instruments condition leaves (COV +
  /// MCDC vector bits) while preserving short-circuit evaluation.
  /// `bit_of` maps leaf Expr* to its bit index in the decision's vector.
  int LowerMexCond(const Expr& e, MexEnv& env, const std::map<const Expr*, int>& bit_of, int vals,
                   int mask) {
    if (e.kind == ExprKind::kBinary && blocks::mex::IsLogicalOp(e.op)) {
      const int res = NewI();
      const int lhs = LowerMexCond(*e.args[0], env, bit_of, vals, mask);
      EmitOp(Op::kMovI, res, lhs);
      const std::size_t skip = (e.op == "&&") ? EmitJz(lhs) : EmitJnz(lhs);
      const int rhs = LowerMexCond(*e.args[1], env, bit_of, vals, mask);
      EmitOp(Op::kMovI, res, rhs);
      Patch(skip);
      return res;
    }
    if (e.kind == ExprKind::kUnary && e.op == "!") {
      const int inner = LowerMexCond(*e.args[0], env, bit_of, vals, mask);
      const int r = NewI();
      EmitOp(Op::kNotL, r, inner);
      return r;
    }
    // Leaf condition.
    const int v = LowerMexBool(e, env);
    if (Instr()) {
      auto it = bit_of.find(&e);
      if (it != bit_of.end() && it->second < 24) {
        EmitConditionLeafCov(sm_.ConditionAt(&e, 0), v, vals, mask, it->second);
      }
    }
    return v;
  }

  /// Lowers a guarded decision (chart transition guard or if arm):
  /// evaluates the condition with instrumentation and returns the bool reg.
  int LowerDecisionCond(const Expr& cond, MexEnv& env, coverage::DecisionId d) {
    std::map<const Expr*, int> bit_of;
    std::vector<const Expr*> leaves;
    blocks::mex::CollectConditionLeaves(cond, leaves);
    for (std::size_t i = 0; i < leaves.size(); ++i) bit_of[leaves[i]] = static_cast<int>(i);

    // Margin guidance for simple single-leaf relational guards: the leaf's
    // own comparison lists the site (LowerMexBool), from the operands it
    // compares.
    if (leaves.size() == 1 && cond.kind == ExprKind::kBinary &&
        blocks::mex::IsBooleanOp(cond.op) && !blocks::mex::IsLogicalOp(cond.op)) {
      margin_guard_ = {&cond, d};
    }

    const int vals = NewI();
    const int mask = NewI();
    if (Instr()) {
      EmitOp(Op::kLoadConstI, vals, 0, 0, 0, 0, 0.0, DType::kUInt32);
      EmitOp(Op::kLoadConstI, mask, 0, 0, 0, 0, 0.0, DType::kUInt32);
    }
    const int res = LowerMexCond(cond, env, bit_of, vals, mask);
    margin_guard_ = {};
    if (Instr()) EmitOp(Op::kMcdcEval, 0, vals, mask, d, res);
    return res;
  }

  void LowerMexStmts(const std::vector<blocks::mex::StmtPtr>& stmts, MexEnv& env) {
    for (const auto& s : stmts) LowerMexStmt(*s, env);
  }

  void LowerMexStmt(const Stmt& stmt, MexEnv& env) {
    if (stmt.kind == StmtKind::kAssign) {
      const int v = LowerMexExpr(*stmt.value, env);
      auto it = env.vars.find(stmt.target);
      assert(it != env.vars.end());
      EmitOp(Op::kMovD, it->second, v);
      return;
    }
    // if / elseif / else chain.
    std::vector<std::size_t> ends;
    for (std::size_t arm = 0; arm < stmt.branches.size(); ++arm) {
      const IfBranch& br = stmt.branches[arm];
      if (br.cond) {
        const coverage::DecisionId d =
            Instr() ? sm_.DecisionAt(&stmt, static_cast<int>(arm)) : -1;
        int cond;
        if (Instr()) {
          cond = LowerDecisionCond(*br.cond, env, d);
        } else {
          cond = LowerMexBool(*br.cond, env);
        }
        const std::size_t jz = EmitJz(cond);
        EmitEdge();
        if (Instr()) EmitDecisionOutcomeCov(d, 0);
        LowerMexStmts(br.body, env);
        ends.push_back(EmitJmp());
        Patch(jz);
        if (Instr()) EmitDecisionOutcomeCov(d, 1);
      } else {
        EmitEdge();
        LowerMexStmts(br.body, env);
      }
    }
    PatchAll(ends);
  }

  Status LowerExprFunc(const Model& sys, const Block& b) {
    const auto* compiled = sm_.analysis.programs.FindExprFunc(&b);
    assert(compiled != nullptr);
    MexEnv env;
    for (std::size_t i = 0; i < compiled->in_names.size(); ++i) {
      const Slot in = ToDouble(InputOf(sys, b, static_cast<int>(i)));
      env.vars[compiled->in_names[i]] = in.reg;
    }
    for (const auto& name : compiled->out_names) {
      const int r = NewD();
      EmitOp(Op::kLoadConstD, r, 0, 0, 0, 0, 0.0);
      env.vars[name] = r;
    }
    for (const auto& name : compiled->local_names) {
      const int r = NewD();
      EmitOp(Op::kLoadConstD, r, 0, 0, 0, 0, 0.0);
      env.vars[name] = r;
    }
    LowerMexStmts(compiled->program.stmts, env);
    for (std::size_t i = 0; i < compiled->out_names.size(); ++i) {
      const int r = env.vars[compiled->out_names[i]];
      SetValue(sys, b.id(), static_cast<int>(i),
               CastTo(Slot{true, r, DType::kDouble}, b.out_type(static_cast<int>(i))));
    }
    return Status::Ok();
  }

  Status LowerChart(const Model& sys, const Block& b, const std::string& bpath) {
    const auto* compiled = sm_.analysis.programs.FindChart(&b);
    assert(compiled != nullptr);
    const ir::ChartDef& def = *b.chart();

    // Persistent storage: active state index, chart variables, outputs.
    const int state_slot = NewStateI(def.initial_state, ir::DType::kInt32, bpath + ".state");
    std::vector<int> var_slots;
    for (const auto& v : def.vars) {
      var_slots.push_back(NewStateD(v.init, DType::kDouble, bpath + "." + v.name));
    }
    std::vector<int> out_slots;
    for (const auto& o : def.outputs) {
      out_slots.push_back(NewStateD(o.init, DType::kDouble, bpath + "." + o.name));
    }

    MexEnv env;
    for (std::size_t i = 0; i < def.inputs.size(); ++i) {
      const Slot in = ToDouble(InputOf(sys, b, static_cast<int>(i)));
      env.vars[def.inputs[i]] = in.reg;
    }
    for (std::size_t i = 0; i < def.vars.size(); ++i) {
      const int r = NewD();
      EmitOp(Op::kLoadStateD, r, 0, 0, var_slots[i]);
      env.vars[def.vars[i].name] = r;
    }
    for (std::size_t i = 0; i < def.outputs.size(); ++i) {
      const int r = NewD();
      EmitOp(Op::kLoadStateD, r, 0, 0, out_slots[i]);
      env.vars[def.outputs[i].name] = r;
    }

    const int s = NewI();
    EmitOp(Op::kLoadStateI, s, 0, 0, state_slot);
    const int snext = NewI();
    EmitOp(Op::kMovI, snext, s);

    std::vector<std::size_t> done_jumps;
    for (std::size_t k = 0; k < def.states.size(); ++k) {
      const Slot kconst = ConstI(static_cast<std::int64_t>(k), DType::kInt32);
      const int is_k = NewI();
      EmitOp(Op::kEqI, is_k, s, kconst.reg);
      const std::size_t skip_state = EmitJz(is_k);
      EmitEdge();
      // Transitions in priority order.
      for (int t : compiled->outgoing[k]) {
        const auto& ct = compiled->transitions[static_cast<std::size_t>(t)];
        const ir::ChartTransition& dt = def.transitions[static_cast<std::size_t>(t)];
        const coverage::DecisionId d = sm_.DecisionAt(&b, 1000 + t);
        int guard;
        if (ct.guard) {
          if (Instr()) {
            guard = LowerDecisionCond(*ct.guard->expr, env, d);
          } else {
            guard = LowerMexBool(*ct.guard->expr, env);
          }
        } else {
          const Slot one = ConstI(1, DType::kBool);
          guard = one.reg;
        }
        const std::size_t not_taken = EmitJz(guard);
        EmitEdge();
        if (Instr()) EmitDecisionOutcomeCov(d, 0);
        if (compiled->states[k].exit) LowerMexStmts(compiled->states[k].exit->stmts, env);
        if (ct.action) LowerMexStmts(ct.action->stmts, env);
        const auto dest = static_cast<std::size_t>(dt.to);
        if (compiled->states[dest].entry) LowerMexStmts(compiled->states[dest].entry->stmts, env);
        const Slot destc = ConstI(dt.to, DType::kInt32);
        EmitOp(Op::kMovI, snext, destc.reg);
        done_jumps.push_back(EmitJmp());
        Patch(not_taken);
        if (Instr()) EmitDecisionOutcomeCov(d, 1);
      }
      // No transition fired: during action.
      if (compiled->states[k].during) LowerMexStmts(compiled->states[k].during->stmts, env);
      done_jumps.push_back(EmitJmp());
      Patch(skip_state);
    }
    PatchAll(done_jumps);

    EmitOp(Op::kStoreStateI, 0, snext, 0, state_slot);
    for (std::size_t i = 0; i < def.vars.size(); ++i) {
      EmitOp(Op::kStoreStateD, 0, env.vars[def.vars[i].name], 0, var_slots[i]);
    }
    for (std::size_t i = 0; i < def.outputs.size(); ++i) {
      EmitOp(Op::kStoreStateD, 0, env.vars[def.outputs[i].name], 0, out_slots[i]);
      SetValue(sys, b.id(), static_cast<int>(i),
               CastTo(Slot{true, env.vars[def.outputs[i].name], DType::kDouble},
                      def.outputs[i].type));
    }
    return Status::Ok();
  }

  // ---- whole-program passes ------------------------------------------------
  /// Rewrites each comparison immediately followed by a jz on its result
  /// into one fused compare-and-branch (kBrLtD, ...), in one O(n) sweep
  /// that compacts the code and remaps every jump target. Only pairs whose
  /// jz is not itself a jump target and that belong to the same block are
  /// fused, so control flow and per-block dispatch attribution are
  /// unchanged; the fused op still writes the comparison's flag register.
  void FuseCompareBranches() {
    std::vector<Insn>& code = prog_.code;
    std::vector<std::int32_t>& owner = prog_.insn_block;
    const std::size_t n = code.size();
    std::vector<bool> is_target(n + 1, false);
    for (const Insn& in : code) {
      if (vm::EffectOf(in.op).jumps) is_target[static_cast<std::size_t>(in.imm)] = true;
    }
    std::vector<std::int32_t> new_pc(n + 1);
    std::size_t out = 0;
    for (std::size_t pc = 0; pc < n; ++pc, ++out) {
      new_pc[pc] = static_cast<std::int32_t>(out);
      code[out] = code[pc];
      owner[out] = owner[pc];
      const Op fused = vm::FusedBranchOf(code[pc].op);
      if (fused == Op::kHalt || pc + 1 >= n) continue;
      const Insn& next = code[pc + 1];
      if (next.op != Op::kJmpIfZero || next.a != code[pc].dst || is_target[pc + 1] ||
          owner[pc + 1] != owner[pc]) {
        continue;
      }
      code[out].op = fused;
      code[out].imm = next.imm;
      ++pc;
      new_pc[pc] = static_cast<std::int32_t>(out);
    }
    new_pc[n] = static_cast<std::int32_t>(out);
    code.resize(out);
    owner.resize(out);
    for (Insn& in : code) {
      if (vm::EffectOf(in.op).jumps) in.imm = new_pc[static_cast<std::size_t>(in.imm)];
    }
    // A site on a fused jz lands on its br.*, which reads the same operands.
    for (vm::MarginSite& m : prog_.margins) m.pc = new_pc[static_cast<std::size_t>(m.pc)];
  }

  /// The constant pool is preloaded once per Machine, so a program that
  /// writes a pooled register would corrupt every later read of that
  /// constant. Refuse it instead of running it.
  Status CheckPoolNotWritten() const {
    std::vector<bool> pooled_d(static_cast<std::size_t>(next_dreg_), false);
    std::vector<bool> pooled_i(static_cast<std::size_t>(next_ireg_), false);
    for (const auto& c : prog_.const_d) pooled_d[static_cast<std::size_t>(c.reg)] = true;
    for (const auto& c : prog_.const_i) pooled_i[static_cast<std::size_t>(c.reg)] = true;
    for (std::size_t pc = 0; pc < prog_.code.size(); ++pc) {
      const Insn& in = prog_.code[pc];
      const vm::OperandEffect fx = vm::EffectOf(in.op);
      std::string bad;  // the pooled register written, if any
      vm::ForEachReg(in, fx.write_d, [&](int r) {
        if (pooled_d[static_cast<std::size_t>(r)]) bad = "d" + std::to_string(r);
      });
      vm::ForEachReg(in, fx.write_i, [&](int r) {
        if (pooled_i[static_cast<std::size_t>(r)]) bad = "i" + std::to_string(r);
      });
      if (!bad.empty()) {
        return Status::Error(StrFormat(
            "internal lowering error: instruction %zu (%s) writes pooled constant register %s",
            pc, std::string(vm::OpName(in.op)).c_str(), bad.c_str()));
      }
    }
    return Status::Ok();
  }

  const sched::ScheduledModel& sm_;
  const LoweringOptions& opts_;
  vm::Program prog_;
  int next_dreg_ = 0;
  int next_ireg_ = 0;
  std::unordered_map<std::uint64_t, int> pool_d_;  // value bits -> dreg
  std::unordered_map<std::int64_t, int> pool_i_;   // wrapped value -> ireg
  std::map<ValueKey, Slot> values_;
  std::map<const Block*, std::vector<int>> delay_state_;
  std::int32_t cur_block_ = -1;  // attribution target for Emit(); -1 = glue
  // The guard leaf whose comparison lists a margin site, and its decision
  // (set by LowerDecisionCond around the guard's lowering).
  struct {
    const Expr* leaf = nullptr;
    coverage::DecisionId decision = -1;
  } margin_guard_;
  std::map<std::string, std::int32_t> block_index_;
};

}  // namespace

Result<vm::Program> LowerToBytecode(const sched::ScheduledModel& sm, const LoweringOptions& opts) {
  return Lowerer(sm, opts).Run();
}

}  // namespace cftcg::codegen
