#include "vm/native_x64.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cstddef>
#include <cstring>
#include <initializer_list>

#include "ir/dtype.hpp"
#include "support/numerics.hpp"
#include "vm/cmp_trace.hpp"

namespace cftcg::vm {

NativeCode::~NativeCode() {
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

void NativeCode::Swap(NativeCode& other) noexcept {
  std::swap(map_, other.map_);
  std::swap(map_bytes_, other.map_bytes_);
  std::swap(code_bytes_, other.code_bytes_);
  std::swap(entry_, other.entry_);
}

NativeCode NativeCode::Map(const std::vector<std::uint8_t>& code) {
  NativeCode out;
  if (code.empty()) return out;
  const long page = sysconf(_SC_PAGESIZE);
  const std::size_t unit = page > 0 ? static_cast<std::size_t>(page) : 4096;
  const std::size_t bytes = (code.size() + unit - 1) / unit * unit;
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return out;
  std::memcpy(map, code.data(), code.size());
  if (mprotect(map, bytes, PROT_READ | PROT_EXEC) != 0) {
    munmap(map, bytes);
    return out;
  }
  out.map_ = map;
  out.map_bytes_ = bytes;
  out.code_bytes_ = code.size();
  out.entry_ = reinterpret_cast<Entry>(map);
  return out;
}

namespace {

// General-purpose registers by encoding; xmm registers are plain numbers.
enum Reg : int {
  kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4, kRbp = 5, kRsi = 6, kRdi = 7,
  kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15,
};
constexpr int kNoIndex = -1;

// What the base registers hold while native code runs. All are callee-saved,
// so they survive the hooks; everything else lives in memory between
// instructions.
constexpr Reg kD = kRbx;          // the double file
constexpr Reg kI = kRbp;          // the int file
constexpr Reg kFrame = kR12;      // the NativeFrame
constexpr Reg kCountdown = kR13;  // the strobe countdown (strobe configs)
constexpr Reg kEdges = kR14;      // the count plane's edge counts (count configs)
constexpr Reg kCov = kR15;        // coverage bits

/// [base + disp], or [base + index * 8 + disp].
struct Mem {
  int base;
  std::int32_t disp;
  int index = kNoIndex;
};

// x86 condition codes; c ^ 1 is the negation of c.
enum Cond : std::uint8_t {
  kO = 0x0, kB = 0x2, kAe = 0x3, kE = 0x4, kNe = 0x5, kBe = 0x6, kA = 0x7,
  kS = 0x8, kP = 0xA, kNp = 0xB, kL = 0xC, kGe = 0xD, kLe = 0xE, kG = 0xF,
};
Cond Negate(Cond c) { return static_cast<Cond>(c ^ 1); }

/// A byte buffer with labels and the handful of encodings the templates
/// use. Every label reference is a rel32 patched by Resolve().
class Assembler {
 public:
  std::vector<std::uint8_t> bytes;

  int NewLabel() {
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
  }
  void Bind(int label) { labels_[static_cast<std::size_t>(label)] = Pos(); }
  void Jmp(int label) {
    Byte(0xE9);
    Rel32(label);
  }
  void Jcc(Cond c, int label) {
    Byte(0x0F);
    Byte(static_cast<std::uint8_t>(0x80 | c));
    Rel32(label);
  }
  /// Patches every label reference; false if one was never bound.
  bool Resolve() {
    for (const auto& [at, label] : fixups_) {
      const std::int32_t target = labels_[static_cast<std::size_t>(label)];
      if (target < 0) return false;
      const std::int32_t rel = target - (at + 4);
      std::memcpy(&bytes[static_cast<std::size_t>(at)], &rel, 4);
    }
    return true;
  }

  void Byte(std::uint8_t b) { bytes.push_back(b); }
  void Imm32(std::int32_t v) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int k = 0; k < 4; ++k) Byte(static_cast<std::uint8_t>(u >> (8 * k)));
  }
  void Imm64(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) Byte(static_cast<std::uint8_t>(v >> (8 * k)));
  }

  /// [prefix] [REX] opcode ModRM(reg, m).
  void RM(std::uint8_t prefix, bool w, std::initializer_list<std::uint8_t> op, int reg, Mem m) {
    if (prefix != 0) Byte(prefix);
    const bool indexed = m.index != kNoIndex;
    Rex(w, reg, m.base, indexed ? m.index : 0);
    for (const std::uint8_t b : op) Byte(b);
    const int base = m.base & 7;
    const bool disp8 = m.disp >= -128 && m.disp <= 127;
    const int mod = (m.disp == 0 && base != 5) ? 0 : disp8 ? 1 : 2;
    Byte(static_cast<std::uint8_t>(mod << 6 | (reg & 7) << 3 | (indexed ? 4 : base)));
    if (indexed) {
      Byte(static_cast<std::uint8_t>(3 << 6 | (m.index & 7) << 3 | base));  // SIB: scale 8
    } else if (base == 4) {
      Byte(0x24);  // SIB: no index (rsp/r12 base)
    }
    if (mod == 1) Byte(static_cast<std::uint8_t>(m.disp));
    if (mod == 2) Imm32(m.disp);
  }
  /// [prefix] [REX] opcode ModRM(reg, rm) with a register operand.
  void RR(std::uint8_t prefix, bool w, std::initializer_list<std::uint8_t> op, int reg, int rm) {
    if (prefix != 0) Byte(prefix);
    Rex(w, reg, rm);
    for (const std::uint8_t b : op) Byte(b);
    Byte(static_cast<std::uint8_t>(0xC0 | (reg & 7) << 3 | (rm & 7)));
  }

  void MovRM(int r, Mem m) { RM(0, true, {0x8B}, r, m); }
  void MovMR(Mem m, int r) { RM(0, true, {0x89}, r, m); }
  void MovRR(int dst, int src) { RR(0, true, {0x89}, src, dst); }
  void MovRI64(int r, std::uint64_t v) {
    Rex(true, 0, r);
    Byte(static_cast<std::uint8_t>(0xB8 | (r & 7)));
    Imm64(v);
  }
  void MovR32I(int r, std::int32_t v) {  // zero-extends into the full register
    Rex(false, 0, r);
    Byte(static_cast<std::uint8_t>(0xB8 | (r & 7)));
    Imm32(v);
  }
  void MovRI32(int r, std::int32_t v) {  // sign-extends
    RR(0, true, {0xC7}, 0, r);
    Imm32(v);
  }
  void MovMI32(Mem m, std::int32_t v) {  // sign-extends
    RM(0, true, {0xC7}, 0, m);
    Imm32(v);
  }
  void MovsdXM(int x, Mem m) { RM(0xF2, false, {0x0F, 0x10}, x, m); }
  void MovsdMX(Mem m, int x) { RM(0xF2, false, {0x0F, 0x11}, x, m); }
  void SdXM(std::uint8_t op, int x, Mem m) { RM(0xF2, false, {0x0F, op}, x, m); }
  void UcomisdXM(int x, Mem m) { RM(0x66, false, {0x0F, 0x2E}, x, m); }
  void UcomisdXX(int x, int y) { RR(0x66, false, {0x0F, 0x2E}, x, y); }
  void XorpsXX(int x, int y) { RR(0, false, {0x0F, 0x57}, x, y); }
  void Cvtsi2sdXM(int x, Mem m) { RM(0xF2, true, {0x0F, 0x2A}, x, m); }
  void Cvttsd2siRM(int r, Mem m) { RM(0xF2, true, {0x0F, 0x2C}, r, m); }
  void AluRM(std::uint8_t op, int r, Mem m) { RM(0, true, {op}, r, m); }
  void AluRR(std::uint8_t op, int dst, int src) { RR(0, true, {op}, src, dst); }
  void ImulRM(int r, Mem m) { RM(0, true, {0x0F, 0xAF}, r, m); }
  void CmpMI8(Mem m, std::int8_t v) {
    RM(0, true, {0x83}, 7, m);
    Byte(static_cast<std::uint8_t>(v));
  }
  void CmpRI8(int r, std::int8_t v) {
    RR(0, true, {0x83}, 7, r);
    Byte(static_cast<std::uint8_t>(v));
  }
  void TestRR(int a, int b) { RR(0, true, {0x85}, b, a); }
  void OrMI32(Mem m, std::int32_t v) {
    RM(0, true, {0x81}, 1, m);
    Imm32(v);
  }
  void OrMR(Mem m, int r) { RM(0, true, {0x09}, r, m); }
  void BtsMI(Mem m, std::uint8_t bit) {
    RM(0, true, {0x0F, 0xBA}, 5, m);
    Byte(bit);
  }
  void MovByteMI(Mem m, std::uint8_t v) {
    RM(0, false, {0xC6}, 0, m);
    Byte(v);
  }
  void IncM(Mem m) { RM(0, true, {0xFF}, 0, m); }
  void DecR(int r) { RR(0, true, {0xFF}, 1, r); }
  void DecM(Mem m) { RM(0, true, {0xFF}, 1, m); }
  void NegR(int r) { RR(0, true, {0xF7}, 3, r); }
  void ShiftRCl(int ext, int r) { RR(0, true, {0xD3}, ext, r); }  // ext 4 = shl, 7 = sar
  void CmovRR(Cond c, int dst, int src) {
    RR(0, true, {0x0F, static_cast<std::uint8_t>(0x40 | c)}, dst, src);
  }
  // Byte registers: only al/cl/dl are used, which need no REX.
  void Setcc(Cond c, int r8) { RR(0, false, {0x0F, static_cast<std::uint8_t>(0x90 | c)}, 0, r8); }
  void AndR8(int dst, int src) { RR(0, false, {0x20}, src, dst); }
  void XorR8I(int r, std::uint8_t v) {
    RR(0, false, {0x80}, 6, r);
    Byte(v);
  }
  void Movzx8(int dst, int src) { RR(0, false, {0x0F, 0xB6}, dst, src); }
  void MovzxByteRM(int dst, Mem m) { RM(0, false, {0x0F, 0xB6}, dst, m); }
  void AndR32I(int r, std::int32_t v) {  // zero-extends into the full register
    RR(0, false, {0x81}, 4, r);
    Imm32(v);
  }
  void ShlRI(int r, std::uint8_t count) {
    RR(0, true, {0xC1}, 4, r);
    Byte(count);
  }
  void AddRI8(int r, std::int8_t v) {
    RR(0, true, {0x83}, 0, r);
    Byte(static_cast<std::uint8_t>(v));
  }
  void Lea(int r, Mem m) { RM(0, true, {0x8D}, r, m); }
  void Cvttsd2siRX(int r, int x) { RR(0xF2, true, {0x0F, 0x2C}, r, x); }
  void Cvtsi2sdXR(int x, int r) { RR(0xF2, true, {0x0F, 0x2A}, x, r); }
  // Bit 63 of a register: ext 6 = btr (clear), 7 = btc (flip).
  void BitOp63(int ext, int r) {
    RR(0, true, {0x0F, 0xBA}, ext, r);
    Byte(63);
  }
  void Push(int r) {
    Rex(false, 0, r);
    Byte(static_cast<std::uint8_t>(0x50 | (r & 7)));
  }
  void Pop(int r) {
    Rex(false, 0, r);
    Byte(static_cast<std::uint8_t>(0x58 | (r & 7)));
  }
  void CallR(int r) { RR(0, false, {0xFF}, 2, r); }
  void Call(int label) {
    Byte(0xE8);
    Rel32(label);
  }
  void Ret() { Byte(0xC3); }

 private:
  std::int32_t Pos() const { return static_cast<std::int32_t>(bytes.size()); }
  void Rel32(int label) {
    fixups_.emplace_back(Pos(), label);
    Imm32(0);
  }
  void Rex(bool w, int reg, int rm, int index = 0) {
    const int rex = 0x40 | (w ? 8 : 0) | ((reg & 8) != 0 ? 4 : 0) | ((index & 8) != 0 ? 2 : 0) |
                    ((rm & 8) != 0 ? 1 : 0);
    if (rex != 0x40) Byte(static_cast<std::uint8_t>(rex));
  }

  std::vector<std::int32_t> labels_;
  std::vector<std::pair<std::int32_t, int>> fixups_;
};

constexpr std::int64_t kMaxFileElements = (std::int64_t{1} << 28);

/// One translation: checks the program, then emits the entry, one template
/// per instruction, the shared exit and the out-of-line stubs.
class Translator {
 public:
  Translator(const Program& p, const FileLayout& d, const FileLayout& i, const NativeConfig& c,
             const NativeHooks& h)
      : p_(p), dl_(d), il_(i), cfg_(c), hooks_(h) {}

  bool Translate() {
    if (!Accepts()) return false;
    const auto n = static_cast<int>(p_.code.size());
    pc_label_.reserve(p_.code.size());
    for (int pc = 0; pc < n; ++pc) pc_label_.push_back(as_.NewLabel());
    has_sites_.assign(p_.code.size(), false);
    for (const MarginSite& m : p_.margins) has_sites_[static_cast<std::size_t>(m.pc)] = true;
    abort_.assign(p_.code.size(), -1);
    exit_ = as_.NewLabel();

    Entry();
    for (int pc = 0; pc < n; ++pc) {
      Prologue(pc);
      Emit(pc);
    }
    as_.Byte(0x0F);  // ud2: past the last instruction (the interpreter would run off the code)
    as_.Byte(0x0B);
    Exit();
    for (const Stub& stub : stubs_) EmitStub(stub);
    EmitTraceRoutines();
    return as_.Resolve();
  }

  const std::vector<std::uint8_t>& bytes() const { return as_.bytes; }

 private:
  // -- Operands ------------------------------------------------------------
  static Mem At(Reg base, std::int64_t element) {
    return Mem{base, static_cast<std::int32_t>(8 * element)};
  }
  static Mem D(std::int64_t element) { return At(kD, element); }
  static Mem I(std::int64_t element) { return At(kI, element); }
  static Mem F(std::size_t offset) { return Mem{kFrame, static_cast<std::int32_t>(offset)}; }

  /// Every operand in range for its file, every jump target an instruction,
  /// every coverage slot non-negative: the templates do no checks of their own.
  bool Accepts() const {
    const auto n = static_cast<std::int64_t>(p_.code.size());
    if (n == 0 || dl_.size >= kMaxFileElements || il_.size >= kMaxFileElements) return false;
    if (n >= kMaxFileElements) return false;
    const auto in_range = [](std::int64_t v, std::int64_t count) { return v >= 0 && v < count; };
    for (const Insn& in : p_.code) {
      const OperandEffect fx = EffectOf(in.op);
      const auto fields_ok = [&](std::uint8_t fields, std::int64_t count) {
        const std::int32_t values[] = {in.dst, in.a, in.b, in.aux};
        const std::uint8_t flags[] = {kFieldDst, kFieldA, kFieldB, kFieldAux};
        for (int k = 0; k < 4; ++k) {
          if ((fields & flags[k]) == 0) continue;
          // cov.cond's mask register is optional (b < 0).
          if (in.op == Op::kCovCond && flags[k] == kFieldB && values[k] < 0) continue;
          if (!in_range(values[k], count)) return false;
        }
        return true;
      };
      if (!fields_ok(fx.read_d | fx.write_d, p_.num_dregs)) return false;
      if (!fields_ok(fx.read_i | fx.write_i, p_.num_iregs)) return false;
      if (fx.jumps && !in_range(in.imm, n)) return false;
      const auto inputs = static_cast<std::int64_t>(p_.input_types.size());
      const auto outputs = static_cast<std::int64_t>(p_.output_types.size());
      switch (in.op) {
        case Op::kLoadInD:
        case Op::kLoadInI:
          if (!in_range(in.imm, inputs)) return false;
          break;
        case Op::kStoreOutD:
        case Op::kStoreOutI:
          if (!in_range(in.imm, outputs)) return false;
          break;
        case Op::kLoadStateD:
        case Op::kStoreStateD:
          if (!in_range(in.imm, static_cast<std::int64_t>(p_.state_d.size()))) return false;
          break;
        case Op::kLoadStateI:
        case Op::kStoreStateI:
          if (!in_range(in.imm, static_cast<std::int64_t>(p_.state_i.size()))) return false;
          break;
        case Op::kCov:
          if (in.imm < 0) return false;
          break;
        case Op::kCovIf:
        case Op::kCovCond:
          if (in.imm < 0 || in.aux < 0) return false;
          break;
        case Op::kEdge:
          if (!in_range(in.imm, p_.num_edges)) return false;
          break;
        case Op::kMcdcEval:
          if (in.imm < 0) return false;
          break;
        default: break;
      }
    }
    for (const MarginSite& m : p_.margins) {
      if (!in_range(m.pc, n)) return false;
    }
    return true;
  }

  // -- Frame ---------------------------------------------------------------
  static constexpr Reg kSaved[] = {kRbx, kRbp, kR12, kR13, kR14, kR15};

  void Entry() {
    as_.Byte(0xF3);  // endbr64
    as_.Byte(0x0F);
    as_.Byte(0x1E);
    as_.Byte(0xFA);
    for (const Reg r : kSaved) as_.Push(r);
    // Six pushes and the return address leave rsp 8 off a 16-byte boundary;
    // the hooks are called with it aligned, as the SysV ABI requires.
    as_.RR(0, true, {0x83}, 5, kRsp);  // sub rsp, 8
    as_.Byte(8);
    as_.MovRR(kFrame, kRdi);
    as_.MovRM(kD, F(offsetof(NativeFrame, d)));
    as_.MovRM(kI, F(offsetof(NativeFrame, r)));
    as_.MovRM(kCov, F(offsetof(NativeFrame, cov)));
    if (cfg_.count) as_.MovRM(kEdges, F(offsetof(NativeFrame, edges_counted)));
    if (cfg_.strobe) as_.MovRM(kCountdown, F(offsetof(NativeFrame, strobe_countdown)));
  }

  /// The shared exit: rax holds the result.
  void Exit() {
    as_.Bind(exit_);
    if (cfg_.strobe) as_.MovMR(F(offsetof(NativeFrame, strobe_countdown)), kCountdown);
    as_.RR(0, true, {0x83}, 0, kRsp);  // add rsp, 8
    as_.Byte(8);
    for (auto it = std::rbegin(kSaved); it != std::rend(kSaved); ++it) as_.Pop(*it);
    as_.Ret();
  }

  /// Calls `hook(frame, pc)`. Clobbers every caller-saved register.
  void CallHook(NativeHook hook, int pc) {
    as_.MovRR(kRdi, kFrame);
    as_.MovR32I(kRsi, pc);
    as_.MovRI64(kRax, reinterpret_cast<std::uint64_t>(hook));
    as_.CallR(kRax);
  }

  /// An out-of-line tail, emitted after the exit: bound at `label`, it does
  /// its work for `pc`, then jumps back to `resume`.
  struct Stub {
    enum class Kind : std::uint8_t {
      kAbort,   // a hang: return pc (no resume)
      kSample,  // a strobe sample at pc, then re-arm the countdown
      kSlow,    // the slow hook for pc
      kTrace,   // TORC for the eq/ne at pc, when a trace is attached
    };
    Kind kind;
    int label;
    int resume;
    int pc;
  };

  /// Queues a stub for `pc`; returns the label that enters it.
  int AddStub(Stub::Kind kind, int pc, int resume) {
    const int label = as_.NewLabel();
    stubs_.push_back(Stub{kind, label, resume, pc});
    return label;
  }

  void EmitStub(const Stub& stub) {
    as_.Bind(stub.label);
    switch (stub.kind) {
      case Stub::Kind::kAbort:
        as_.MovR32I(kRax, stub.pc);
        as_.Jmp(exit_);
        return;
      case Stub::Kind::kSample:
        as_.MovRM(kCountdown, F(offsetof(NativeFrame, strobe_period)));
        as_.MovRM(kRax, F(offsetof(NativeFrame, samples)));
        as_.IncM(At(kRax, stub.pc));
        break;
      case Stub::Kind::kSlow: CallHook(hooks_.slow, stub.pc); break;
      case Stub::Kind::kTrace: {
        const Insn& in = p_.code[static_cast<std::size_t>(stub.pc)];
        as_.MovRM(kRsi, F(offsetof(NativeFrame, cmp_trace)));
        as_.TestRR(kRsi, kRsi);
        as_.Jcc(kE, stub.resume);
        if (IsDoubleEquality(in.op)) {
          as_.MovsdXM(0, D(in.a));
          as_.MovsdXM(1, D(in.b));
          as_.Call(TraceLabel(trace_double_));
        } else {
          as_.MovRM(kRax, I(in.a));
          as_.MovRM(kRdx, I(in.b));
          if (in.dst == in.a || in.dst == in.b) {  // the flag took an operand's place
            as_.AluRR(0x39, kRax, kRdx);
            as_.Jcc(kE, stub.resume);
          }
          as_.Call(TraceLabel(trace_int_));
        }
        break;
      }
    }
    as_.Jmp(stub.resume);
  }

  // -- TORC ----------------------------------------------------------------
  // CmpTrace::RecordInt and RecordDouble as two routines shared by every
  // eq/ne of the translation, reached by a near call with a private
  // convention: rsi holds the CmpTrace, rax and rdx the int pair or xmm0
  // and xmm1 the double pair. They clobber rax, rcx, rdx, rdi and xmm2,
  // make no call, and are emitted only when some stub calls them.
  static bool IsDoubleEquality(Op op) {
    return op == Op::kEqD || op == Op::kNeD || op == Op::kBrEqD || op == Op::kBrNeD;
  }

  /// The label of a routine, made on first use.
  int TraceLabel(int& label) {
    if (label < 0) label = as_.NewLabel();
    return label;
  }

  static Mem Ring(std::size_t field) { return Mem{kRsi, static_cast<std::int32_t>(field)}; }

  /// Stores the pair into a ring as the CmpTrace does: at idx % 64 and
  /// (idx + 1) % 64, then idx += 2, then count = count < 64 ? idx : 64.
  /// `store` writes the pair's first (k = 0) or second (k = 1) operand to
  /// the ring slot it is given.
  template <typename Store>
  void PushPair(std::size_t slots, std::size_t idx, std::size_t count, Store store) {
    static_assert(CmpTrace::kCapacity == 64, "the ring index is masked with 63");
    static_assert(!kNativeTarget || sizeof(std::size_t) == 8, "the indices are 64-bit words");
    as_.MovRM(kRcx, Ring(idx));
    for (int k = 0; k < 2; ++k) {
      as_.Lea(kRdi, Mem{kRcx, k});
      as_.AndR32I(kRdi, 63);
      store(k, Mem{kRsi, static_cast<std::int32_t>(slots), kRdi});
    }
    as_.AddRI8(kRcx, 2);
    as_.MovMR(Ring(idx), kRcx);
    as_.MovR32I(kRdi, 64);
    as_.CmpMI8(Ring(count), 64);
    as_.CmovRR(kB, kRdi, kRcx);
    as_.MovMR(Ring(count), kRdi);
  }

  /// Jumps to `fail` unless xmm`x` holds an integral double strictly
  /// inside ±9e15 (CmpTrace's test); leaves its int64 value in `r`. Past
  /// 2^52 every double is whole, so the range is |trunc(v)| <= 9e15 - 1.
  void Integral(int x, int r, int fail) {
    constexpr std::int64_t kLimit = 8'999'999'999'999'999;
    as_.Cvttsd2siRX(r, x);  // INT64_MIN for NaN, ±Inf and past ±2^63
    as_.MovRI64(kRcx, static_cast<std::uint64_t>(kLimit));
    as_.MovRR(kRdi, r);
    as_.AluRR(0x01, kRdi, kRcx);  // add rdi, rcx
    as_.MovRI64(kRcx, static_cast<std::uint64_t>(2 * kLimit));
    as_.AluRR(0x39, kRdi, kRcx);  // cmp rdi, rcx
    as_.Jcc(kA, fail);
    as_.XorpsXX(2, 2);
    as_.Cvtsi2sdXR(2, r);
    as_.UcomisdXX(2, x);
    as_.Jcc(kNe, fail);
  }

  void EmitTraceRoutines() {
    const CmpTrace::Offsets o = CmpTrace::NativeOffsets();
    if (trace_double_ >= 0) {
      as_.Bind(trace_double_);
      PushPair(o.doubles, o.double_idx, o.double_count,
               [&](int k, Mem slot) { as_.MovsdMX(slot, k); });
      // A pair of integral doubles also feeds the int ring.
      const int done = as_.NewLabel();
      Integral(0, kRax, done);
      Integral(1, kRdx, done);
      as_.Jmp(TraceLabel(trace_int_));
      as_.Bind(done);
      as_.Ret();
    }
    if (trace_int_ >= 0) {
      as_.Bind(trace_int_);
      PushPair(o.ints, o.int_idx, o.int_count,
               [&](int k, Mem slot) { as_.MovMR(slot, k == 0 ? kRax : kRdx); });
      as_.Ret();
    }
  }

  /// Emits `jcc label` to a stub of `kind` for `pc` that comes back right
  /// after the jump.
  void JccStub(Cond cc, Stub::Kind kind, int pc) {
    const int resume = as_.NewLabel();
    as_.Jcc(cc, AddStub(kind, pc, resume));
    as_.Bind(resume);
  }

  // -- Control flow --------------------------------------------------------
  /// Where a hang aborts at `pc`: returns pc.
  int AbortLabel(int pc) {
    int& label = abort_[static_cast<std::size_t>(pc)];
    if (label < 0) label = AddStub(Stub::Kind::kAbort, pc, -1);
    return label;
  }

  /// A control transfer from `pc` to `target`, taken. A backward one spends
  /// the budget (and aborts the Step when it runs out), then the count plane
  /// counts it; Machine::FlushProfile derives a forward one.
  void Take(int pc, int target) {
    if (target <= pc) {
      as_.DecM(F(offsetof(NativeFrame, back_jumps)));
      as_.Jcc(kE, AbortLabel(pc));
      if (cfg_.count) as_.IncM(At(kEdges, pc));
    }
    as_.Jmp(pc_label_[static_cast<std::size_t>(target)]);
  }

  /// Transfers from `pc` to `target` when `cc` holds. A forward transfer is
  /// a direct jcc, and the count plane counts its fall-through instead.
  void BranchIf(Cond cc, int pc, int target) {
    if (target > pc) {
      as_.Jcc(cc, pc_label_[static_cast<std::size_t>(target)]);
      if (cfg_.count) as_.IncM(At(kEdges, pc));
      return;
    }
    const int skip = as_.NewLabel();
    as_.Jcc(Negate(cc), skip);
    Take(pc, target);
    as_.Bind(skip);
  }

  // -- Templates -----------------------------------------------------------
  /// What runs before every instruction, on fall-through and jump landing
  /// alike: its margin sites, then the strobe countdown.
  void Prologue(int pc) {
    as_.Bind(pc_label_[static_cast<std::size_t>(pc)]);
    if (cfg_.margins && has_sites_[static_cast<std::size_t>(pc)]) CallHook(hooks_.margins, pc);
    if (cfg_.strobe) {
      as_.DecR(kCountdown);
      JccStub(kE, Stub::Kind::kSample, pc);
    }
  }

  /// Wraps rax to `t` as ir::WrapToDType does.
  void Wrap(ir::DType t) {
    switch (t) {
      case ir::DType::kBool:
        as_.TestRR(kRax, kRax);
        as_.Setcc(kNe, kRax);
        as_.Movzx8(kRax, kRax);
        return;
      case ir::DType::kInt8: as_.RR(0, true, {0x0F, 0xBE}, kRax, kRax); return;   // movsx
      case ir::DType::kUInt8: as_.RR(0, false, {0x0F, 0xB6}, kRax, kRax); return; // movzx
      case ir::DType::kInt16: as_.RR(0, true, {0x0F, 0xBF}, kRax, kRax); return;  // movsx
      case ir::DType::kUInt16: as_.RR(0, false, {0x0F, 0xB7}, kRax, kRax); return;  // movzx
      case ir::DType::kInt32: as_.RR(0, true, {0x63}, kRax, kRax); return;  // movsxd
      case ir::DType::kUInt32: as_.RR(0, false, {0x89}, kRax, kRax); return;  // mov eax, eax
      case ir::DType::kSingle:
      case ir::DType::kDouble: return;
    }
  }

  /// iregs[dst] = cl (a 0/1 flag).
  void StoreFlag(int dst) {
    as_.Movzx8(kRcx, kRcx);
    as_.MovMR(I(dst), kRcx);
  }

  /// Sets coverage slot `slot` in the sink's curr words. A whole-word
  /// read-modify-write, like DynamicBitset::Set: the coverage update reads
  /// these words right after the Step, and a word load cannot be forwarded
  /// from a narrower store still in flight.
  void SetCovBit(std::int32_t slot) {
    const Mem word = At(kCov, slot >> 6);
    const int bit = slot & 63;
    if (bit < 31) {
      as_.OrMI32(word, std::int32_t{1} << bit);
    } else {
      as_.BtsMI(word, static_cast<std::uint8_t>(bit));
    }
  }

  /// mem |= bits (64-bit).
  void OrBits(Mem m, std::int64_t bits) {
    if (bits >= INT32_MIN && bits <= INT32_MAX) {
      as_.OrMI32(m, static_cast<std::int32_t>(bits));
    } else {
      as_.MovRI64(kRcx, static_cast<std::uint64_t>(bits));
      as_.OrMR(m, kRcx);
    }
  }

  /// Sets the flags for lt/le/gt/ge and returns the condition under which
  /// the comparison is true. Doubles compare with ucomisd, ordered so an
  /// unordered (NaN) pair makes every one of them false.
  Cond Compare(Op base, const Insn& in) {
    switch (base) {
      case Op::kLtD:  // b > a
        as_.MovsdXM(0, D(in.b));
        as_.UcomisdXM(0, D(in.a));
        return kA;
      case Op::kLeD:  // b >= a
        as_.MovsdXM(0, D(in.b));
        as_.UcomisdXM(0, D(in.a));
        return kAe;
      case Op::kGtD:
        as_.MovsdXM(0, D(in.a));
        as_.UcomisdXM(0, D(in.b));
        return kA;
      case Op::kGeD:
        as_.MovsdXM(0, D(in.a));
        as_.UcomisdXM(0, D(in.b));
        return kAe;
      default: break;
    }
    as_.MovRM(kRax, I(in.a));
    as_.AluRM(0x3B, kRax, I(in.b));  // cmp rax, [b]
    switch (base) {
      case Op::kLtI: return kL;
      case Op::kLeI: return kLe;
      case Op::kGtI: return kG;
      default: return kGe;
    }
  }

  /// eq/ne (and their fused forms): the flag, then TORC — operands that
  /// differ are recorded by the trace stub, which reads them back after the
  /// flag is stored, as the interpreter does (an int flag may overwrite an
  /// operand register, so such an instruction always enters the stub, which
  /// compares what is left).
  void Equality(int pc, const Insn& in, Op base, bool fused) {
    const bool is_d = base == Op::kEqD || base == Op::kNeD;
    const bool ne = base == Op::kNeD || base == Op::kNeI;
    if (is_d) {
      as_.MovsdXM(0, D(in.a));
      as_.UcomisdXM(0, D(in.b));
      as_.Setcc(kE, kRcx);
      as_.Setcc(kNp, kRdx);
      as_.AndR8(kRcx, kRdx);
    } else {
      as_.MovRM(kRax, I(in.a));
      as_.AluRM(0x3B, kRax, I(in.b));
      as_.Setcc(kE, kRcx);
    }
    if (ne) as_.XorR8I(kRcx, 1);
    StoreFlag(in.dst);
    if (!is_d && (in.dst == in.a || in.dst == in.b)) {
      const int resume = as_.NewLabel();
      as_.Jmp(AddStub(Stub::Kind::kTrace, pc, resume));
      as_.Bind(resume);
    } else {
      as_.TestRR(kRcx, kRcx);
      JccStub(ne ? kNe : kE, Stub::Kind::kTrace, pc);  // the operands differ
    }
    if (fused) {
      as_.CmpMI8(I(in.dst), 0);
      BranchIf(kE, pc, in.imm);
    }
  }

  void Emit(int pc) {
    const Insn& in = p_.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Op::kHalt:
        as_.MovRI32(kRax, -1);
        as_.Jmp(exit_);
        return;
      case Op::kLoadConstD:
        as_.MovRI64(kRax, std::bit_cast<std::uint64_t>(in.dimm));
        as_.MovMR(D(in.dst), kRax);
        return;
      case Op::kLoadConstI: {
        const std::int64_t v = ir::WrapToDType(num::TruncToI64(in.dimm), in.type);
        if (v >= INT32_MIN && v <= INT32_MAX) {
          as_.MovMI32(I(in.dst), static_cast<std::int32_t>(v));
        } else {
          as_.MovRI64(kRax, static_cast<std::uint64_t>(v));
          as_.MovMR(I(in.dst), kRax);
        }
        return;
      }
      case Op::kMovD:
        as_.MovRM(kRax, D(in.a));
        as_.MovMR(D(in.dst), kRax);
        return;
      case Op::kMovI:
        as_.MovRM(kRax, I(in.a));
        as_.MovMR(I(in.dst), kRax);
        return;
      case Op::kCvtDToI: {
        // cvttsd2si yields INT64_MIN for NaN, ±Inf and out-of-range values
        // (and for -2^63 itself); those take the interpreter's saturation.
        const int resume = as_.NewLabel();
        const int slow = AddStub(Stub::Kind::kSlow, pc, resume);
        as_.Cvttsd2siRM(kRax, D(in.a));
        as_.CmpRI8(kRax, 1);  // overflows only for INT64_MIN
        as_.Jcc(kO, slow);
        Wrap(in.type);
        as_.MovMR(I(in.dst), kRax);
        as_.Bind(resume);
        return;
      }
      case Op::kCvtIToD:
        as_.XorpsXX(0, 0);  // no false dependence on the old xmm0
        as_.Cvtsi2sdXM(0, I(in.a));
        as_.MovsdMX(D(in.dst), 0);
        return;
      case Op::kWrapI:
        as_.MovRM(kRax, I(in.a));
        Wrap(in.type);
        as_.MovMR(I(in.dst), kRax);
        return;
      case Op::kBoolD:  // != 0.0, and NaN is nonzero
        as_.MovsdXM(0, D(in.a));
        as_.XorpsXX(1, 1);
        as_.UcomisdXX(0, 1);
        as_.Setcc(kNe, kRcx);
        as_.Setcc(kP, kRdx);
        as_.RR(0, false, {0x08}, kRdx, kRcx);  // or cl, dl
        StoreFlag(in.dst);
        return;
      case Op::kBoolI:
        as_.CmpMI8(I(in.a), 0);
        as_.Setcc(kNe, kRcx);
        StoreFlag(in.dst);
        return;
      case Op::kAddD:
      case Op::kSubD:
      case Op::kMulD: {
        const std::uint8_t op = in.op == Op::kAddD ? 0x58 : in.op == Op::kSubD ? 0x5C : 0x59;
        as_.MovsdXM(0, D(in.a));
        as_.SdXM(op, 0, D(in.b));
        as_.MovsdMX(D(in.dst), 0);
        return;
      }
      case Op::kMinD:
      case Op::kMaxD: {
        // fmin(a, b) on an ordered pair is b < a ? b : a, and fmax is
        // b > a ? b : a: minsd/maxsd with b as the destination, which
        // returns a on a tie (so fmin(-0.0, 0.0) is -0.0, as in glibc). An
        // unordered pair takes the slow hook.
        const int resume = as_.NewLabel();
        const int slow = AddStub(Stub::Kind::kSlow, pc, resume);
        as_.MovsdXM(0, D(in.b));
        as_.UcomisdXM(0, D(in.a));
        as_.Jcc(kP, slow);
        as_.SdXM(in.op == Op::kMinD ? 0x5D : 0x5F, 0, D(in.a));
        as_.MovsdMX(D(in.dst), 0);
        as_.Bind(resume);
        return;
      }
      case Op::kNegD:
      case Op::kAbsD:  // the sign bit flipped or cleared: exact for NaN payloads and -0.0
        as_.MovRM(kRax, D(in.a));
        as_.BitOp63(in.op == Op::kNegD ? 7 : 6, kRax);
        as_.MovMR(D(in.dst), kRax);
        return;
      case Op::kAddI:
      case Op::kSubI:
      case Op::kMulI:
      case Op::kAndBitsI:
      case Op::kOrBitsI:
      case Op::kXorBitsI:
        as_.MovRM(kRax, I(in.a));
        switch (in.op) {
          case Op::kAddI: as_.AluRM(0x03, kRax, I(in.b)); break;
          case Op::kSubI: as_.AluRM(0x2B, kRax, I(in.b)); break;
          case Op::kMulI: as_.ImulRM(kRax, I(in.b)); break;
          case Op::kAndBitsI: as_.AluRM(0x23, kRax, I(in.b)); break;
          case Op::kOrBitsI: as_.AluRM(0x0B, kRax, I(in.b)); break;
          default: as_.AluRM(0x33, kRax, I(in.b)); break;
        }
        Wrap(in.type);
        as_.MovMR(I(in.dst), kRax);
        return;
      case Op::kMinI:
      case Op::kMaxI:  // a < b ? a : b, and a > b ? a : b
        as_.MovRM(kRax, I(in.a));
        as_.MovRM(kRcx, I(in.b));
        as_.AluRR(0x39, kRax, kRcx);  // cmp rax, rcx
        as_.CmovRR(in.op == Op::kMinI ? kGe : kLe, kRax, kRcx);
        as_.MovMR(I(in.dst), kRax);
        return;
      case Op::kNegI:
        as_.MovRM(kRax, I(in.a));
        as_.NegR(kRax);
        Wrap(in.type);
        as_.MovMR(I(in.dst), kRax);
        return;
      case Op::kShlI:
      case Op::kShrI:  // the count is taken mod 64 by the shift itself
        as_.MovRM(kRcx, I(in.b));
        as_.MovRM(kRax, I(in.a));
        as_.ShiftRCl(in.op == Op::kShlI ? 4 : 7, kRax);
        Wrap(in.type);
        as_.MovMR(I(in.dst), kRax);
        return;
      case Op::kNotL:
        as_.CmpMI8(I(in.a), 0);
        as_.Setcc(kE, kRcx);
        StoreFlag(in.dst);
        return;
      case Op::kLtD:
      case Op::kLeD:
      case Op::kGtD:
      case Op::kGeD:
      case Op::kLtI:
      case Op::kLeI:
      case Op::kGtI:
      case Op::kGeI:
        as_.Setcc(Compare(in.op, in), kRcx);
        StoreFlag(in.dst);
        return;
      case Op::kEqD:
      case Op::kNeD:
      case Op::kEqI:
      case Op::kNeI: Equality(pc, in, in.op, /*fused=*/false); return;
      case Op::kBrLtD:
      case Op::kBrLeD:
      case Op::kBrGtD:
      case Op::kBrGeD:
      case Op::kBrLtI:
      case Op::kBrLeI:
      case Op::kBrGtI:
      case Op::kBrGeI: {
        const Cond holds = Compare(UnfusedOf(in.op), in);
        as_.Setcc(holds, kRcx);
        StoreFlag(in.dst);
        BranchIf(Negate(holds), pc, in.imm);  // the flag is 0
        return;
      }
      case Op::kBrEqD:
      case Op::kBrNeD:
      case Op::kBrEqI:
      case Op::kBrNeI: Equality(pc, in, UnfusedOf(in.op), /*fused=*/true); return;
      case Op::kJmp: Take(pc, in.imm); return;
      case Op::kJmpIfZero:
      case Op::kJmpIfNotZero:
        as_.CmpMI8(I(in.a), 0);
        BranchIf(in.op == Op::kJmpIfZero ? kE : kNe, pc, in.imm);
        return;
      case Op::kLoadInD: Move(D(in.dst), D(dl_.in + in.imm)); return;
      case Op::kLoadInI: Move(I(in.dst), I(il_.in + in.imm)); return;
      case Op::kStoreOutD: Move(D(dl_.out + in.imm), D(in.a)); return;
      case Op::kStoreOutI: Move(I(il_.out + in.imm), I(in.a)); return;
      case Op::kLoadStateD: Move(D(in.dst), D(dl_.state + in.imm)); return;
      case Op::kLoadStateI: Move(I(in.dst), I(il_.state + in.imm)); return;
      case Op::kStoreStateD: Move(D(dl_.state + in.imm), D(in.a)); return;
      case Op::kStoreStateI: Move(I(il_.state + in.imm), I(in.a)); return;
      case Op::kCov: SetCovBit(in.imm); return;
      case Op::kEdge:
        as_.MovRM(kRax, F(offsetof(NativeFrame, edges)));
        as_.MovByteMI(Mem{kRax, in.imm}, 1);
        return;
      case Op::kCovIf: {
        const int other = as_.NewLabel();
        const int done = as_.NewLabel();
        as_.CmpMI8(I(in.a), 0);
        as_.Jcc(kE, other);
        SetCovBit(in.imm);
        as_.Jmp(done);
        as_.Bind(other);
        SetCovBit(in.aux);
        as_.Bind(done);
        return;
      }
      case Op::kCovCond: {
        // The value is read before the mask update (b may name a).
        const std::int64_t bit = num::TruncToI64(in.dimm);
        const int other = as_.NewLabel();
        const int done = as_.NewLabel();
        as_.MovRM(kRax, I(in.a));
        if (in.b >= 0) OrBits(I(in.b), bit);
        as_.TestRR(kRax, kRax);
        as_.Jcc(kE, other);
        OrBits(I(in.dst), bit);
        SetCovBit(in.imm);
        as_.Jmp(done);
        as_.Bind(other);
        SetCovBit(in.aux);
        as_.Bind(done);
        return;
      }
      case Op::kMcdcEval: {
        // RecordEval's repeat filter, inline: the evaluation packed as
        // coverage::PackEval packs it, against the decision's last one. Only
        // a new evaluation calls out (and RecordEval filters it again).
        as_.MovRM(kRax, I(in.a));
        as_.AndR32I(kRax, 0xFFFFFF);
        as_.MovRM(kRcx, I(in.b));
        as_.AndR32I(kRcx, 0xFFFFFF);
        as_.ShlRI(kRcx, 24);
        as_.AluRR(0x09, kRax, kRcx);  // or rax, rcx
        as_.MovzxByteRM(kRcx, I(in.aux));
        as_.ShlRI(kRcx, 48);
        as_.AluRR(0x09, kRax, kRcx);
        as_.MovRM(kRdx, F(offsetof(NativeFrame, last_evals)));
        as_.AluRM(0x3B, kRax, At(kRdx, in.imm));  // cmp rax, last
        JccStub(kNe, Stub::Kind::kSlow, pc);
        return;
      }
      default: CallHook(hooks_.slow, pc); return;
    }
  }

  /// dst = src, 8 bytes.
  void Move(Mem dst, Mem src) {
    as_.MovRM(kRax, src);
    as_.MovMR(dst, kRax);
  }

  /// The comparison a fused compare-and-branch computes (br.lt.d -> lt.d):
  /// both blocks of Op list the comparisons in the same order.
  static Op UnfusedOf(Op fused) {
    return static_cast<Op>(static_cast<int>(fused) - static_cast<int>(Op::kBrLtD) +
                           static_cast<int>(Op::kLtD));
  }

  const Program& p_;
  const FileLayout dl_;
  const FileLayout il_;
  const NativeConfig cfg_;
  const NativeHooks hooks_;
  Assembler as_;
  std::vector<int> pc_label_;
  std::vector<bool> has_sites_;
  int exit_ = -1;
  int trace_int_ = -1;     // the TORC routines' labels, or -1 while unused
  int trace_double_ = -1;
  std::vector<int> abort_;  // per pc, the label of its hang stub, or -1
  std::vector<Stub> stubs_;
};

}  // namespace

NativeCode TranslateX64(const Program& program, const FileLayout& d, const FileLayout& i,
                        const NativeConfig& config, const NativeHooks& hooks) {
  if constexpr (!kNativeTarget) return NativeCode();
  Translator t(program, d, i, config, hooks);
  if (!t.Translate()) return NativeCode();
  return NativeCode::Map(t.bytes());
}

}  // namespace cftcg::vm
