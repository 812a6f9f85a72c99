#include "vm/native_x64.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <span>

#include "coverage/sink.hpp"
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
  kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11, kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15,
};
constexpr int kNoIndex = -1;
constexpr int kNoHome = -1;

// What the base registers hold while native code runs. All are callee-saved,
// so they survive the hooks. The templates' scratch registers are rax, rcx,
// rdx, xmm0 and xmm1; the rest of the caller-saved registers are homes
// (Homes below).
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
  void MovsdXM(int x, Mem m) { RM(0xF2, false, {0x0F, 0x10}, x, m); }
  void MovsdMX(Mem m, int x) { RM(0xF2, false, {0x0F, 0x11}, x, m); }
  void UcomisdXX(int x, int y) { RR(0x66, false, {0x0F, 0x2E}, x, y); }
  void XorpsXX(int x, int y) { RR(0, false, {0x0F, 0x57}, x, y); }
  void AluRM(std::uint8_t op, int r, Mem m) { RM(0, true, {op}, r, m); }
  void AluRR(std::uint8_t op, int dst, int src) { RR(0, true, {op}, src, dst); }
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
  void AndR32I(int r, std::int32_t v) {  // zero-extends into the full register
    RR(0, false, {0x81}, 4, r);
    Imm32(v);
  }
  void ShlRI(int r, std::uint8_t count) {
    RR(0, true, {0xC1}, 4, r);
    Byte(count);
  }
  void ShrRI(int r, std::uint8_t count) {
    RR(0, true, {0xC1}, 5, r);
    Byte(count);
  }
  void AddRI8(int r, std::int8_t v) {
    RR(0, true, {0x83}, 0, r);
    Byte(static_cast<std::uint8_t>(v));
  }
  void Lea(int r, Mem m) { RM(0, true, {0x8D}, r, m); }
  void Cvttsd2siRX(int r, int x) { RR(0xF2, true, {0x0F, 0x2C}, r, x); }
  void Cvtsi2sdXR(int x, int r) { RR(0xF2, true, {0x0F, 0x2A}, x, r); }
  void MovapsXX(int dst, int src) { RR(0, false, {0x0F, 0x28}, dst, src); }
  void MovqXR(int x, int r) { RR(0x66, true, {0x0F, 0x6E}, x, r); }
  void MovqRX(int r, int x) { RR(0x66, true, {0x0F, 0x7E}, x, r); }
  void OrRI32(int r, std::int32_t v) {  // sign-extends
    RR(0, true, {0x81}, 1, r);
    Imm32(v);
  }
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

// -- Register homes ----------------------------------------------------------
// A d or i register keeps one machine register, its home, for the whole of
// its live interval: the span of code positions from the first to the last
// at which it is live (holes included, back edges included). Two registers
// share a home only when their intervals are disjoint, so at every position
// a home has at most one owner, across labels and merges alike.

/// The machine registers that hold d and i values: every caller-saved
/// register no template uses as scratch, in the order linear scan hands
/// them out. The TORC routines use xmm2, rsi and rdi, so those go last.
constexpr int kDoubleHomes[] = {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 2};
constexpr int kIntHomes[] = {kR8, kR9, kR10, kR11, kRsi, kRdi};

/// One register's live interval and its home, or kNoHome.
struct Interval {
  std::int32_t start = INT32_MAX;  // empty until extended
  std::int32_t end = -1;
  std::int32_t uses = 0;  // static reads and writes: the spill weight
  int home = kNoHome;

  void Extend(std::int32_t pc) {
    start = std::min(start, pc);
    end = std::max(end, pc);
  }
  [[nodiscard]] bool Covers(std::int64_t pc) const { return start <= pc && pc <= end; }
};

/// A fixed-width bitset row per basic block.
class BlockSets {
 public:
  BlockSets(std::size_t blocks, int bits)
      : words_((static_cast<std::size_t>(bits) + 63) / 64), w_(blocks * words_, 0) {}
  std::uint64_t* Row(std::size_t b) { return w_.data() + b * words_; }
  [[nodiscard]] std::size_t words() const { return words_; }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> w_;
};

/// The basic blocks of a program and the operand effects of its
/// instructions, shared by both files' liveness passes.
struct ControlFlow {
  std::vector<OperandEffect> fx;      // per pc
  std::vector<std::int32_t> first;    // block b is [first[b], first[b + 1])
  std::vector<std::int32_t> succ;     // per block, two successor blocks or -1

  explicit ControlFlow(const Program& p) {
    const auto n = static_cast<std::int32_t>(p.code.size());
    fx.reserve(p.code.size());
    for (const Insn& in : p.code) fx.push_back(EffectOf(in.op));
    // Leaders at 0, at every jump target and after every transfer.
    std::vector<char> leader(static_cast<std::size_t>(n) + 1, 0);
    leader[0] = 1;
    for (std::int32_t pc = 0; pc < n; ++pc) {
      const Insn& in = p.code[static_cast<std::size_t>(pc)];
      if (fx[static_cast<std::size_t>(pc)].jumps) leader[static_cast<std::size_t>(in.imm)] = 1;
      if (fx[static_cast<std::size_t>(pc)].jumps || in.op == Op::kHalt) {
        leader[static_cast<std::size_t>(pc) + 1] = 1;
      }
    }
    std::vector<std::int32_t> block_of(static_cast<std::size_t>(n));
    for (std::int32_t pc = 0; pc < n; ++pc) {
      if (leader[static_cast<std::size_t>(pc)] != 0) first.push_back(pc);
      block_of[static_cast<std::size_t>(pc)] = static_cast<std::int32_t>(first.size()) - 1;
    }
    const std::size_t count = first.size();
    first.push_back(n);
    succ.assign(2 * count, -1);
    for (std::size_t b = 0; b < count; ++b) {
      const std::int32_t last = first[b + 1] - 1;
      const Insn& in = p.code[static_cast<std::size_t>(last)];
      if (fx[static_cast<std::size_t>(last)].jumps) {
        succ[2 * b] = block_of[static_cast<std::size_t>(in.imm)];
      }
      const bool falls = in.op != Op::kHalt && in.op != Op::kJmp && last + 1 < n;
      if (falls) succ[2 * b + 1] = static_cast<std::int32_t>(b) + 1;
    }
  }
  [[nodiscard]] std::size_t blocks() const { return first.size() - 1; }
};

/// The live intervals of one register file (`is_float`) over `p`'s
/// control-flow graph: a backward liveness pass over basic blocks to a fixed
/// point, then one backward walk per block that extends each register's
/// interval over every position where it is live. A definition whose value
/// is never read extends nothing, so a register written but never read has
/// an empty interval.
std::vector<Interval> LiveIntervals(const Program& p, const ControlFlow& cfg, bool is_float) {
  const int regs = is_float ? p.num_dregs : p.num_iregs;
  std::vector<Interval> iv(static_cast<std::size_t>(regs));
  const auto reads = [&](std::int32_t pc) {
    const OperandEffect& fx = cfg.fx[static_cast<std::size_t>(pc)];
    return is_float ? fx.read_d : fx.read_i;
  };
  const auto writes = [&](std::int32_t pc) {
    const OperandEffect& fx = cfg.fx[static_cast<std::size_t>(pc)];
    return is_float ? fx.write_d : fx.write_i;
  };
  const std::vector<std::int32_t>& first = cfg.first;
  const std::size_t blocks = cfg.blocks();
  // use: read before any write in the block; def: written in the block.
  BlockSets use(blocks, regs);
  BlockSets def(blocks, regs);
  BlockSets live_in(blocks, regs);
  BlockSets live_out(blocks, regs);
  const std::size_t words = use.words();
  const auto has = [](const std::uint64_t* row, std::int32_t r) {
    return ((row[static_cast<std::size_t>(r) / 64] >> (r % 64)) & 1U) != 0;
  };
  const auto set = [](std::uint64_t* row, std::int32_t r) {
    row[static_cast<std::size_t>(r) / 64] |= std::uint64_t{1} << (r % 64);
  };
  const auto clear = [](std::uint64_t* row, std::int32_t r) {
    row[static_cast<std::size_t>(r) / 64] &= ~(std::uint64_t{1} << (r % 64));
  };
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t* u = use.Row(b);
    std::uint64_t* d = def.Row(b);
    for (std::int32_t pc = first[b]; pc < first[b + 1]; ++pc) {
      const Insn& in = p.code[static_cast<std::size_t>(pc)];
      ForEachReg(in, reads(pc), [&](std::int32_t r) {
        if (!has(d, r)) set(u, r);
      });
      ForEachReg(in, writes(pc), [&](std::int32_t r) { set(d, r); });
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t b = blocks; b-- > 0;) {
      std::uint64_t* out = live_out.Row(b);
      for (const std::int32_t s : {cfg.succ[2 * b], cfg.succ[2 * b + 1]}) {
        if (s < 0) continue;
        const std::uint64_t* in = live_in.Row(static_cast<std::size_t>(s));
        for (std::size_t k = 0; k < words; ++k) out[k] |= in[k];
      }
      std::uint64_t* in = live_in.Row(b);
      const std::uint64_t* u = use.Row(b);
      const std::uint64_t* d = def.Row(b);
      for (std::size_t k = 0; k < words; ++k) {
        const std::uint64_t next = u[k] | (out[k] & ~d[k]);
        changed = changed || next != in[k];
        in[k] = next;
      }
    }
  }
  // Live across a block boundary: an interval starts no later than the
  // first block it is live into and ends no earlier than the last block it
  // is live out of, so each register is extended once per direction.
  std::vector<std::uint64_t> seen(words);
  const auto extend_fresh = [&](const std::uint64_t* row, std::int32_t pc) {
    for (std::size_t k = 0; k < words; ++k) {
      for (std::uint64_t w = row[k] & ~seen[k]; w != 0; w &= w - 1) {
        iv[k * 64 + static_cast<std::size_t>(std::countr_zero(w))].Extend(pc);
      }
      seen[k] |= row[k];
    }
  };
  for (std::size_t b = 0; b < blocks; ++b) extend_fresh(live_in.Row(b), first[b]);
  std::fill(seen.begin(), seen.end(), 0);
  for (std::size_t b = blocks; b-- > 0;) extend_fresh(live_out.Row(b), first[b + 1] - 1);
  // Within a block: definitions whose value is read, and every read.
  std::vector<std::uint64_t> live(words);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::copy_n(live_out.Row(b), words, live.begin());
    for (std::int32_t pc = first[b + 1] - 1; pc >= first[b]; --pc) {
      const Insn& in = p.code[static_cast<std::size_t>(pc)];
      ForEachReg(in, writes(pc), [&](std::int32_t r) {
        Interval& v = iv[static_cast<std::size_t>(r)];
        ++v.uses;
        if (has(live.data(), r)) v.Extend(pc);
        clear(live.data(), r);
      });
      ForEachReg(in, reads(pc), [&](std::int32_t r) {
        Interval& v = iv[static_cast<std::size_t>(r)];
        ++v.uses;
        v.Extend(pc);
        set(live.data(), r);
      });
    }
  }
  return iv;
}

/// Linear scan over `iv` in start order: each interval takes a free home
/// for its whole length. When none is free, the interval with the fewest
/// static uses among the current owners and the newcomer goes without (an
/// owner that loses its home loses it for its whole interval). Intervals
/// that touch at a position conflict, so a position never has two owners.
/// Returns the registers with a home, by interval start.
std::vector<std::int32_t> AssignHomes(std::vector<Interval>& iv, std::span<const int> homes) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < iv.size(); ++r) {
    if (iv[r].end >= 0) order.push_back(r);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return iv[a].start != iv[b].start ? iv[a].start < iv[b].start : a < b;
  });
  std::vector<int> free(homes.rbegin(), homes.rend());
  std::vector<std::size_t> active;
  for (const std::size_t r : order) {
    Interval& cur = iv[r];
    std::erase_if(active, [&](std::size_t a) {
      if (iv[a].end >= cur.start) return false;
      free.push_back(iv[a].home);
      return true;
    });
    if (!free.empty()) {
      cur.home = free.back();
      free.pop_back();
      active.push_back(r);
      continue;
    }
    const auto weaker = [&](std::size_t a, std::size_t b) {
      return iv[a].uses != iv[b].uses ? iv[a].uses < iv[b].uses : iv[a].end > iv[b].end;
    };
    const auto weakest = std::min_element(active.begin(), active.end(), weaker);
    if (iv[*weakest].uses >= cur.uses) continue;
    std::swap(cur.home, iv[*weakest].home);
    *weakest = r;
  }
  std::vector<std::int32_t> homed;
  for (const std::size_t r : order) {
    if (iv[r].home != kNoHome) homed.push_back(static_cast<std::int32_t>(r));
  }
  return homed;
}

/// Whether `op` writes a 0/1 flag to its dst and nothing else.
bool IsFlagOp(Op op) {
  return op == Op::kBoolD || op == Op::kBoolI || (op >= Op::kNotL && op <= Op::kBrNeI);
}

/// Bits that hold every value a wrap to `t` leaves of a `w`-bit
/// non-negative value (64: it may be negative).
int WrapWidth(int w, ir::DType t) {
  switch (t) {
    case ir::DType::kBool: return std::min(w, 1);
    case ir::DType::kUInt8: return std::min(w, 8);
    case ir::DType::kUInt16: return std::min(w, 16);
    case ir::DType::kUInt32: return std::min(w, 32);
    case ir::DType::kInt8: return w < 8 ? w : 64;
    case ir::DType::kInt16: return w < 16 ? w : 64;
    case ir::DType::kInt32: return w < 32 ? w : 64;
    case ir::DType::kSingle:
    case ir::DType::kDouble: return w;
  }
  return 64;
}

/// Bits of a constant: 64 when it is negative.
int ConstWidth(std::int64_t v) {
  return v < 0 ? 64 : static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v)));
}

/// Per i register, how many low bits hold every value it can take (64 when
/// it may be negative): the least fixed point over its definitions, from
/// the Machine's zeroed file and the constant pool. Nothing but the program
/// writes a register, so the bound holds at every instruction boundary.
std::vector<std::uint8_t> IntWidths(const Program& p, const ControlFlow& cfg) {
  std::vector<std::uint8_t> w(static_cast<std::size_t>(p.num_iregs), 0);
  const auto at = [&](std::int32_t r) { return static_cast<int>(w[static_cast<std::size_t>(r)]); };
  for (const auto& c : p.const_i) {
    auto& x = w[static_cast<std::size_t>(c.reg)];
    x = static_cast<std::uint8_t>(std::max(static_cast<int>(x), ConstWidth(c.value)));
  }
  const auto produced = [&](const Insn& in, std::int32_t r) {
    if (IsFlagOp(in.op)) return 1;
    switch (in.op) {
      case Op::kLoadConstI:
        return ConstWidth(ir::WrapToDType(num::TruncToI64(in.dimm), in.type));
      case Op::kMovI: return at(in.a);
      case Op::kWrapI: return WrapWidth(at(in.a), in.type);
      case Op::kAndBitsI: return WrapWidth(std::min(at(in.a), at(in.b)), in.type);
      case Op::kOrBitsI:
      case Op::kXorBitsI: return WrapWidth(std::max(at(in.a), at(in.b)), in.type);
      case Op::kMinI:
      case Op::kMaxI: return std::max(at(in.a), at(in.b));
      case Op::kCovCond:  // r |= bit
        return std::max(at(r), ConstWidth(num::TruncToI64(in.dimm)));
      case Op::kLoadInI:
      case Op::kLoadStateI:
      case Op::kSignI: return 64;
      default: return WrapWidth(64, in.type);  // the other integer ops wrap to their type
    }
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
      const Insn& in = p.code[pc];
      ForEachReg(in, cfg.fx[pc].write_i, [&](std::int32_t r) {
        const int next = std::max(at(r), produced(in, r));
        if (next == at(r)) return;
        w[static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(next);
        changed = true;
      });
    }
  }
  return w;
}

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
    as_.bytes.reserve(p_.code.size() * 40);  // ~34 bytes per instruction on the bench models
    stubs_.reserve(p_.code.size() / 4);
    AllocateHomes();

    Advance();
    Entry();
    for (pc_ = 0; pc_ < n; ++pc_) {
      Advance();
      Prologue(pc_);
      Emit(pc_);
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
  static constexpr std::size_t kMachineRegs = 16;  // per class: rax..r15, xmm0..xmm15

  // -- Operands ------------------------------------------------------------
  static Mem At(Reg base, std::int64_t element) {
    return Mem{base, static_cast<std::int32_t>(8 * element)};
  }
  static Mem D(std::int64_t element) { return At(kD, element); }
  static Mem I(std::int64_t element) { return At(kI, element); }
  static Mem F(std::size_t offset) { return Mem{kFrame, static_cast<std::int32_t>(offset)}; }

  /// Where an instruction reads a register: its home, or the file.
  struct Loc {
    int home;
    Mem mem;
  };
  /// The home of register `reg` at the instruction being emitted, or kNoHome.
  [[nodiscard]] int HomeD(std::int32_t reg) const { return HomeAt(dv_, reg); }
  [[nodiscard]] int HomeI(std::int32_t reg) const { return HomeAt(iv_, reg); }
  [[nodiscard]] int HomeAt(const std::vector<Interval>& iv, std::int32_t reg) const {
    const Interval& v = iv[static_cast<std::size_t>(reg)];
    return v.Covers(pc_) ? v.home : kNoHome;
  }
  [[nodiscard]] Loc DL(std::int32_t reg) const { return {HomeD(reg), D(reg)}; }
  [[nodiscard]] Loc IL(std::int32_t reg) const { return {HomeI(reg), I(reg)}; }

  /// [prefix] [REX] opcode ModRM(reg, l): the register form when l has a home.
  void RX(std::uint8_t prefix, bool w, std::initializer_list<std::uint8_t> op, int reg, Loc l) {
    if (l.home != kNoHome) {
      as_.RR(prefix, w, op, reg, l.home);
    } else {
      as_.RM(prefix, w, op, reg, l.mem);
    }
  }

  /// The xmm register that holds dregs[reg]: its home, or xmm`x` loaded
  /// from the file.
  int ReadD(std::int32_t reg, int x) {
    const int home = HomeD(reg);
    if (home != kNoHome) return home;
    as_.MovsdXM(x, D(reg));
    return x;
  }
  /// xmm`x` = dregs[reg].
  void LoadD(int x, std::int32_t reg) {
    const int from = ReadD(reg, x);
    if (from != x) as_.MovapsXX(x, from);
  }
  /// The general register that holds iregs[reg]: its home, or `r` loaded
  /// from the file.
  int ReadI(std::int32_t reg, int r) {
    const int home = HomeI(reg);
    if (home != kNoHome) return home;
    as_.MovRM(r, I(reg));
    return r;
  }
  /// r = iregs[reg].
  void LoadI(int r, std::int32_t reg) {
    const int from = ReadI(reg, r);
    if (from != r) as_.MovRR(r, from);
  }

  // Every definition is written through: to the file, then to the home the
  // register has here. The file is therefore the interpreter's at every
  // instruction boundary, and a home equals the file wherever its owner is
  // live.

  /// dregs[reg] = xmm`x`.
  void WriteD(std::int32_t reg, int x) {
    as_.MovsdMX(D(reg), x);
    const int home = HomeD(reg);
    if (home != kNoHome && home != x) as_.MovapsXX(home, x);
  }
  /// dregs[reg] = the bits in rax.
  void WriteDBits(std::int32_t reg) {
    as_.MovMR(D(reg), kRax);
    const int home = HomeD(reg);
    if (home != kNoHome) as_.MovqXR(home, kRax);
  }
  /// iregs[reg] = r.
  void WriteI(std::int32_t reg, int r) {
    as_.MovMR(I(reg), r);
    const int home = HomeI(reg);
    if (home != kNoHome && home != r) as_.MovRR(home, r);
  }

  /// An 8-byte copy of a double from `from` to the file slot `to` and, if
  /// it is not kNoHome, the home `to_home`.
  void CopyD(Mem to, int to_home, Loc from) {
    if (from.home != kNoHome) {
      as_.MovsdMX(to, from.home);
      if (to_home != kNoHome) as_.MovapsXX(to_home, from.home);
    } else if (to_home != kNoHome) {
      as_.MovsdXM(to_home, from.mem);
      as_.MovsdMX(to, to_home);
    } else {
      as_.MovRM(kRax, from.mem);
      as_.MovMR(to, kRax);
    }
  }
  /// CopyD for an integer.
  void CopyI(Mem to, int to_home, Loc from) {
    int via = from.home;
    if (via == kNoHome) {
      via = to_home != kNoHome ? to_home : kRax;
      as_.MovRM(via, from.mem);
    }
    as_.MovMR(to, via);
    if (to_home != kNoHome && to_home != via) as_.MovRR(to_home, via);
  }

  /// Sets the flags as `cmp iregs[reg], 0` does.
  void CmpZero(std::int32_t reg) {
    RX(0, true, {0x83}, 7, IL(reg));
    as_.Byte(0);
  }

  /// Gives every register a live interval and, where linear scan finds one,
  /// a home; lists the homed intervals by start for Advance.
  void AllocateHomes() {
    const ControlFlow cfg(p_);
    dv_ = LiveIntervals(p_, cfg, /*is_float=*/true);
    iv_ = LiveIntervals(p_, cfg, /*is_float=*/false);
    homed_[0] = AssignHomes(dv_, kDoubleHomes);
    // r13 and r14 hold the strobe countdown and the count plane's base only
    // when the configuration has them; otherwise they are homes that calls
    // preserve.
    std::vector<int> int_homes;
    int_homes.reserve(std::size(kIntHomes) + 2);
    if (!cfg_.strobe) int_homes.push_back(kCountdown);
    if (!cfg_.count) int_homes.push_back(kEdges);
    for (const int home : kIntHomes) int_homes.push_back(home);
    homed_[1] = AssignHomes(iv_, int_homes);
    width_ = IntWidths(p_, cfg);
    for (auto& owners : born_) owners.fill(-1);
  }

  /// Moves the home owners up to pc_: each home's latest owner to start.
  void Advance() {
    for (const int f : {0, 1}) {
      const std::vector<Interval>& iv = f == 0 ? dv_ : iv_;
      const std::vector<std::int32_t>& homed = homed_[f];
      for (std::size_t& k = next_born_[f]; k < homed.size(); ++k) {
        const Interval& v = iv[static_cast<std::size_t>(homed[k])];
        if (v.start > pc_) break;
        born_[f][static_cast<std::size_t>(v.home)] = homed[k];
      }
    }
  }

  /// Per file (d, i) and machine register, the register it is home to at
  /// pc_, or -1.
  using Owners = std::array<std::array<std::int32_t, kMachineRegs>, 2>;
  [[nodiscard]] Owners OwnersHere() const {
    Owners out;
    for (const int f : {0, 1}) {
      const std::vector<Interval>& iv = f == 0 ? dv_ : iv_;
      for (std::size_t h = 0; h < kMachineRegs; ++h) {
        const std::int32_t r = born_[f][h];
        out[f][h] = r >= 0 && iv[static_cast<std::size_t>(r)].Covers(pc_) ? r : -1;
      }
    }
    return out;
  }

  /// Loads every owned home from the files: at entry, and after a call out,
  /// which may clobber every caller-saved register (and the slow hook
  /// writes its result to the file).
  void ReloadHomes(const Owners& owners) {
    for (std::size_t home = 0; home < kMachineRegs; ++home) {
      if (owners[0][home] >= 0) as_.MovsdXM(static_cast<int>(home), D(owners[0][home]));
      if (owners[1][home] >= 0) as_.MovRM(static_cast<int>(home), I(owners[1][home]));
    }
  }

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
        case Op::kMcdcEval:  // the known-evaluation row's offset fits a disp32
          if (!in_range(in.imm, std::int64_t{1} << 24)) return false;
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
    ReloadHomes(OwnersHere());
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

  /// Calls `hook(frame, pc)`, then reloads the homes the call clobbered.
  void CallHook(NativeHook hook, int pc, const Owners& owners) {
    as_.MovRR(kRdi, kFrame);
    as_.MovR32I(kRsi, pc);
    as_.MovRI64(kRax, reinterpret_cast<std::uint64_t>(hook));
    as_.CallR(kRax);
    ReloadHomes(owners);
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
    Owners owners;  // the homes' owners at pc, for the stubs that call
  };

  /// Queues a stub for `pc`, the instruction being emitted; returns the
  /// label that enters it.
  int AddStub(Stub::Kind kind, int pc, int resume) {
    const int label = as_.NewLabel();
    const bool calls = kind == Stub::Kind::kSlow || kind == Stub::Kind::kTrace;
    stubs_.push_back(Stub{kind, label, resume, pc, calls ? OwnersHere() : Owners{}});
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
      case Stub::Kind::kSlow:
        if (p_.code[static_cast<std::size_t>(stub.pc)].op == Op::kMcdcEval) {
          // RecordEval needs a sink; without one the evaluation goes nowhere.
          as_.RM(0, true, {0x83}, 7, F(offsetof(NativeFrame, sink)));  // cmp [sink], 0
          as_.Byte(0);
          as_.Jcc(kE, stub.resume);
        }
        CallHook(hooks_.slow, stub.pc, stub.owners);
        break;
      case Stub::Kind::kTrace: {
        const Insn& in = p_.code[static_cast<std::size_t>(stub.pc)];
        as_.RM(0, true, {0x83}, 7, F(offsetof(NativeFrame, cmp_trace)));  // cmp [trace], 0
        as_.Byte(0);
        as_.Jcc(kE, stub.resume);
        const bool is_d = IsDoubleEquality(in.op);
        if (is_d) {
          as_.MovsdXM(0, D(in.a));
          as_.MovsdXM(1, D(in.b));
        } else {
          as_.MovRM(kRax, I(in.a));
          as_.MovRM(kRdx, I(in.b));
          if (in.dst == in.a || in.dst == in.b) {  // the flag took an operand's place
            as_.AluRR(0x39, kRax, kRdx);
            as_.Jcc(kE, stub.resume);
          }
        }
        // The routines use rsi, rdi and xmm2: saved here when a register
        // lives in them at pc.
        const bool rsi = stub.owners[1][kRsi] >= 0;
        const bool rdi = stub.owners[1][kRdi] >= 0;
        const bool xmm2 = is_d && stub.owners[0][2] >= 0;
        if (rsi) as_.Push(kRsi);
        if (rdi) as_.Push(kRdi);
        if (xmm2) {
          as_.RR(0, true, {0x83}, 5, kRsp);  // sub rsp, 8
          as_.Byte(8);
          as_.MovsdMX(Mem{kRsp, 0}, 2);
        }
        as_.Call(TraceLabel(is_d ? trace_double_ : trace_int_));
        if (xmm2) {
          as_.MovsdXM(2, Mem{kRsp, 0});
          as_.RR(0, true, {0x83}, 0, kRsp);  // add rsp, 8
          as_.Byte(8);
        }
        if (rdi) as_.Pop(kRdi);
        if (rsi) as_.Pop(kRsi);
        break;
      }
    }
    as_.Jmp(stub.resume);
  }

  // -- TORC ----------------------------------------------------------------
  // CmpTrace::RecordInt and RecordDouble as two routines shared by every
  // eq/ne of the translation, reached by a near call with a private
  // convention: rax and rdx hold the int pair, or xmm0 and xmm1 the double
  // pair. Besides scratch they clobber rsi (which they point at the
  // CmpTrace), rdi and xmm2, which the calling stub saves when they are
  // homes at its pc. They make no call, and are emitted only when some stub
  // calls them.
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
      as_.MovRM(kRsi, F(offsetof(NativeFrame, cmp_trace)));
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
      as_.MovRM(kRsi, F(offsetof(NativeFrame, cmp_trace)));
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
    if (cfg_.margins && has_sites_[static_cast<std::size_t>(pc)]) {
      CallHook(hooks_.margins, pc, OwnersHere());
    }
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

  // A flag into a register whose values all fit a byte (IntWidths) keeps
  // its file slot's upper seven bytes zero, so one byte store writes it
  // through. That store is used where no wider load of the slot follows
  // soon: the register is never read, or it is read from its home.

  /// Whether dst's flag is written through as one byte at this pc.
  [[nodiscard]] bool ByteFlag(int dst) const {
    const auto r = static_cast<std::size_t>(dst);
    return width_[r] <= 8 && (iv_[r].end < 0 || HomeI(dst) != kNoHome);
  }
  /// iregs[dst] = cl (a 0/1 flag).
  void StoreFlag(int dst) {
    if (!ByteFlag(dst)) {
      as_.Movzx8(kRcx, kRcx);
      WriteI(dst, kRcx);
      return;
    }
    as_.RM(0, false, {0x88}, kRcx, I(dst));  // mov byte [dst], cl
    const int home = HomeI(dst);
    if (home != kNoHome) as_.RR(0, false, {0x0F, 0xB6}, home, kRcx);  // movzx home32, cl
  }
  /// iregs[dst] = (c holds); leaves the flags as they are.
  void SetFlag(Cond c, int dst) {
    if (ByteFlag(dst) && HomeI(dst) == kNoHome) {
      as_.RM(0, false, {0x0F, static_cast<std::uint8_t>(0x90 | c)}, 0, I(dst));  // setcc byte [dst]
      return;
    }
    as_.Setcc(c, kRcx);
    StoreFlag(dst);
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

  /// iregs[reg] |= bits (64-bit).
  void OrBits(std::int32_t reg, std::int64_t bits) {
    const bool imm32 = bits >= INT32_MIN && bits <= INT32_MAX;
    if (!imm32) as_.MovRI64(kRcx, static_cast<std::uint64_t>(bits));
    const int home = HomeI(reg);
    if (home == kNoHome) {
      if (imm32) {
        as_.OrMI32(I(reg), static_cast<std::int32_t>(bits));
      } else {
        as_.OrMR(I(reg), kRcx);
      }
      return;
    }
    if (imm32) {
      as_.OrRI32(home, static_cast<std::int32_t>(bits));
    } else {
      as_.AluRR(0x09, home, kRcx);  // or home, rcx
    }
    as_.MovMR(I(reg), home);
  }

  /// Sets the flags for lt/le/gt/ge and returns the condition under which
  /// the comparison is true. Doubles compare with ucomisd, ordered so an
  /// unordered (NaN) pair makes every one of them false.
  Cond Compare(Op base, const Insn& in) {
    switch (base) {
      case Op::kLtD:  // b > a
        RX(0x66, false, {0x0F, 0x2E}, ReadD(in.b, 0), DL(in.a));
        return kA;
      case Op::kLeD:  // b >= a
        RX(0x66, false, {0x0F, 0x2E}, ReadD(in.b, 0), DL(in.a));
        return kAe;
      case Op::kGtD:
        RX(0x66, false, {0x0F, 0x2E}, ReadD(in.a, 0), DL(in.b));
        return kA;
      case Op::kGeD:
        RX(0x66, false, {0x0F, 0x2E}, ReadD(in.a, 0), DL(in.b));
        return kAe;
      default: break;
    }
    RX(0, true, {0x3B}, ReadI(in.a, kRax), IL(in.b));  // cmp a, b
    switch (base) {
      case Op::kLtI: return kL;
      case Op::kLeI: return kLe;
      case Op::kGtI: return kG;
      default: return kGe;
    }
  }

  /// eq/ne (and their fused forms): the flag, then TORC — operands that
  /// differ are recorded by the trace stub, which reads them back from the
  /// file after the flag is stored, as the interpreter does (an int flag
  /// may overwrite an operand register, so such an instruction always
  /// enters the stub, which compares what is left).
  void Equality(int pc, const Insn& in, Op base, bool fused) {
    const bool is_d = base == Op::kEqD || base == Op::kNeD;
    const bool ne = base == Op::kNeD || base == Op::kNeI;
    if (is_d) {
      RX(0x66, false, {0x0F, 0x2E}, ReadD(in.a, 0), DL(in.b));
      as_.Setcc(kE, kRcx);
      as_.Setcc(kNp, kRdx);
      as_.AndR8(kRcx, kRdx);
    } else {
      RX(0, true, {0x3B}, ReadI(in.a, kRax), IL(in.b));
      as_.Setcc(kE, kRcx);
    }
    if (ne) as_.XorR8I(kRcx, 1);
    StoreFlag(in.dst);
    if (!is_d && (in.dst == in.a || in.dst == in.b)) {
      const int resume = as_.NewLabel();
      as_.Jmp(AddStub(Stub::Kind::kTrace, pc, resume));
      as_.Bind(resume);
    } else {
      as_.RR(0, false, {0x84}, kRcx, kRcx);  // test cl, cl
      JccStub(ne ? kNe : kE, Stub::Kind::kTrace, pc);  // the operands differ
    }
    if (fused) {
      CmpZero(in.dst);
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
        WriteDBits(in.dst);
        return;
      case Op::kLoadConstI: {
        const std::int64_t v = ir::WrapToDType(num::TruncToI64(in.dimm), in.type);
        if (v >= INT32_MIN && v <= INT32_MAX) {
          as_.MovRI32(kRax, static_cast<std::int32_t>(v));
        } else {
          as_.MovRI64(kRax, static_cast<std::uint64_t>(v));
        }
        WriteI(in.dst, kRax);
        return;
      }
      case Op::kMovD: CopyD(D(in.dst), HomeD(in.dst), DL(in.a)); return;
      case Op::kMovI: CopyI(I(in.dst), HomeI(in.dst), IL(in.a)); return;
      case Op::kCvtDToI: {
        // cvttsd2si yields INT64_MIN for NaN, ±Inf and out-of-range values
        // (and for -2^63 itself); those take the interpreter's saturation.
        const int resume = as_.NewLabel();
        const int slow = AddStub(Stub::Kind::kSlow, pc, resume);
        RX(0xF2, true, {0x0F, 0x2C}, kRax, DL(in.a));  // cvttsd2si rax, a
        as_.CmpRI8(kRax, 1);  // overflows only for INT64_MIN
        as_.Jcc(kO, slow);
        Wrap(in.type);
        WriteI(in.dst, kRax);
        as_.Bind(resume);
        return;
      }
      case Op::kCvtIToD: {
        const int x = HomeD(in.dst) != kNoHome ? HomeD(in.dst) : 0;
        as_.XorpsXX(x, x);  // no false dependence on the old value
        RX(0xF2, true, {0x0F, 0x2A}, x, IL(in.a));  // cvtsi2sd x, a
        WriteD(in.dst, x);
        return;
      }
      case Op::kWrapI:
        LoadI(kRax, in.a);
        Wrap(in.type);
        WriteI(in.dst, kRax);
        return;
      case Op::kBoolD:  // != 0.0, and NaN is nonzero
        as_.XorpsXX(1, 1);
        RX(0x66, false, {0x0F, 0x2E}, 1, DL(in.a));
        as_.Setcc(kNe, kRcx);
        as_.Setcc(kP, kRdx);
        as_.RR(0, false, {0x08}, kRdx, kRcx);  // or cl, dl
        StoreFlag(in.dst);
        return;
      case Op::kBoolI:
        CmpZero(in.a);
        SetFlag(kNe, in.dst);
        return;
      case Op::kAddD:
      case Op::kSubD:
      case Op::kMulD: {
        // Computed in dst's home unless b lives there (dst == b).
        const std::uint8_t op = in.op == Op::kAddD ? 0x58 : in.op == Op::kSubD ? 0x5C : 0x59;
        const int home = HomeD(in.dst);
        const int x = home != kNoHome && DL(in.b).home != home ? home : 0;
        LoadD(x, in.a);
        RX(0xF2, false, {0x0F, op}, x, DL(in.b));
        WriteD(in.dst, x);
        return;
      }
      case Op::kMinD:
      case Op::kMaxD: {
        // min(a, b) on an ordered pair is b < a ? b : a, and max is
        // b > a ? b : a: minsd/maxsd with b as the destination, which
        // returns a on a tie (so min(-0.0, 0.0) is -0.0). An unordered pair
        // takes the slow hook.
        const int resume = as_.NewLabel();
        const int slow = AddStub(Stub::Kind::kSlow, pc, resume);
        LoadD(0, in.b);
        RX(0x66, false, {0x0F, 0x2E}, 0, DL(in.a));
        as_.Jcc(kP, slow);
        RX(0xF2, false, {0x0F, static_cast<std::uint8_t>(in.op == Op::kMinD ? 0x5D : 0x5F)}, 0,
           DL(in.a));
        WriteD(in.dst, 0);
        as_.Bind(resume);
        return;
      }
      case Op::kNegD:
      case Op::kAbsD: {  // the sign bit flipped or cleared: exact for NaN payloads and -0.0
        const int home = HomeD(in.a);
        if (home != kNoHome) {
          as_.MovqRX(kRax, home);
        } else {
          as_.MovRM(kRax, D(in.a));
        }
        as_.BitOp63(in.op == Op::kNegD ? 7 : 6, kRax);
        WriteDBits(in.dst);
        return;
      }
      case Op::kAddI:
      case Op::kSubI:
      case Op::kMulI:
      case Op::kAndBitsI:
      case Op::kOrBitsI:
      case Op::kXorBitsI:
        LoadI(kRax, in.a);
        switch (in.op) {
          case Op::kAddI: RX(0, true, {0x03}, kRax, IL(in.b)); break;
          case Op::kSubI: RX(0, true, {0x2B}, kRax, IL(in.b)); break;
          case Op::kMulI: RX(0, true, {0x0F, 0xAF}, kRax, IL(in.b)); break;
          case Op::kAndBitsI: RX(0, true, {0x23}, kRax, IL(in.b)); break;
          case Op::kOrBitsI: RX(0, true, {0x0B}, kRax, IL(in.b)); break;
          default: RX(0, true, {0x33}, kRax, IL(in.b)); break;
        }
        Wrap(in.type);
        WriteI(in.dst, kRax);
        return;
      case Op::kMinI:
      case Op::kMaxI: {  // a < b ? a : b, and a > b ? a : b
        LoadI(kRax, in.a);
        RX(0, true, {0x3B}, kRax, IL(in.b));  // cmp rax, b
        const Cond take_b = in.op == Op::kMinI ? kGe : kLe;
        RX(0, true, {0x0F, static_cast<std::uint8_t>(0x40 | take_b)}, kRax, IL(in.b));  // cmov
        WriteI(in.dst, kRax);
        return;
      }
      case Op::kNegI:
        LoadI(kRax, in.a);
        as_.NegR(kRax);
        Wrap(in.type);
        WriteI(in.dst, kRax);
        return;
      case Op::kShlI:
      case Op::kShrI:  // the count is taken mod 64 by the shift itself
        LoadI(kRcx, in.b);
        LoadI(kRax, in.a);
        as_.ShiftRCl(in.op == Op::kShlI ? 4 : 7, kRax);
        Wrap(in.type);
        WriteI(in.dst, kRax);
        return;
      case Op::kNotL:
        CmpZero(in.a);
        SetFlag(kE, in.dst);
        return;
      case Op::kLtD:
      case Op::kLeD:
      case Op::kGtD:
      case Op::kGeD:
      case Op::kLtI:
      case Op::kLeI:
      case Op::kGtI:
      case Op::kGeI:
        SetFlag(Compare(in.op, in), in.dst);
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
        SetFlag(holds, in.dst);
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
        CmpZero(in.a);
        BranchIf(in.op == Op::kJmpIfZero ? kE : kNe, pc, in.imm);
        return;
      case Op::kLoadInD: CopyD(D(in.dst), HomeD(in.dst), {kNoHome, D(dl_.in + in.imm)}); return;
      case Op::kLoadInI: CopyI(I(in.dst), HomeI(in.dst), {kNoHome, I(il_.in + in.imm)}); return;
      case Op::kStoreOutD: CopyD(D(dl_.out + in.imm), kNoHome, DL(in.a)); return;
      case Op::kStoreOutI: CopyI(I(il_.out + in.imm), kNoHome, IL(in.a)); return;
      case Op::kLoadStateD:
        CopyD(D(in.dst), HomeD(in.dst), {kNoHome, D(dl_.state + in.imm)});
        return;
      case Op::kLoadStateI:
        CopyI(I(in.dst), HomeI(in.dst), {kNoHome, I(il_.state + in.imm)});
        return;
      case Op::kStoreStateD: CopyD(D(dl_.state + in.imm), kNoHome, DL(in.a)); return;
      case Op::kStoreStateI: CopyI(I(il_.state + in.imm), kNoHome, IL(in.a)); return;
      case Op::kCov: SetCovBit(in.imm); return;
      case Op::kEdge:
        as_.MovRM(kRax, F(offsetof(NativeFrame, edges)));
        as_.MovByteMI(Mem{kRax, in.imm}, 1);
        return;
      case Op::kCovIf: {
        const int other = as_.NewLabel();
        const int done = as_.NewLabel();
        CmpZero(in.a);
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
        LoadI(kRax, in.a);
        if (in.b >= 0) OrBits(in.b, bit);
        as_.TestRR(kRax, kRax);
        as_.Jcc(kE, other);
        OrBits(in.dst, bit);
        SetCovBit(in.imm);
        as_.Jmp(done);
        as_.Bind(other);
        SetCovBit(in.aux);
        as_.Bind(done);
        return;
      }
      case Op::kMcdcEval: {
        // RecordEval's repeat filter, inline: the evaluation packed as
        // coverage::PackEval packs it, against the known-evaluation word it
        // maps to (CoverageSink::KnownEvalSlot). Only an evaluation missing
        // there calls out (and RecordEval filters it again).
        // (The masks are left out where IntWidths shows them to be no-ops.)
        const auto width = [&](std::int32_t r) { return width_[static_cast<std::size_t>(r)]; };
        LoadI(kRax, in.a);
        if (width(in.a) > 24) as_.AndR32I(kRax, 0xFFFFFF);
        LoadI(kRcx, in.b);
        if (width(in.b) > 24) as_.AndR32I(kRcx, 0xFFFFFF);
        as_.ShlRI(kRcx, 24);
        as_.AluRR(0x09, kRax, kRcx);  // or rax, rcx
        LoadI(kRcx, in.aux);
        if (width(in.aux) > 8) as_.Movzx8(kRcx, kRcx);
        as_.ShlRI(kRcx, 48);
        as_.AluRR(0x09, kRax, kRcx);
        using coverage::CoverageSink;
        as_.MovRI64(kRcx, CoverageSink::kEvalWayHash);
        as_.RR(0, true, {0x0F, 0xAF}, kRcx, kRax);  // imul rcx, rax
        as_.ShrRI(kRcx, 62);
        as_.MovRM(kRdx, F(offsetof(NativeFrame, known_evals)));
        const auto row = static_cast<std::int64_t>(in.imm) *
                         static_cast<std::int64_t>(CoverageSink::kEvalWays);
        const Mem known{kRdx, static_cast<std::int32_t>(8 * row), kRcx};
        as_.AluRM(0x3B, kRax, known);  // cmp rax, [known + way]
        JccStub(kNe, Stub::Kind::kSlow, pc);
        return;
      }
      default: CallHook(hooks_.slow, pc, OwnersHere()); return;
    }
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
  int pc_ = 0;                  // the instruction being emitted
  std::vector<Interval> dv_;    // per d register, its interval and home
  std::vector<Interval> iv_;    // per i register
  std::vector<std::uint8_t> width_;  // per i register: IntWidths
  // Per file (d, i) and home, the registers that own it, in code order.
  // Per file (0 is d, 1 is i): the registers with a home by interval
  // start, the next one Advance takes, and per home the latest owner to
  // start.
  std::array<std::vector<std::int32_t>, 2> homed_;
  std::array<std::size_t, 2> next_born_{};
  std::array<std::array<std::int32_t, kMachineRegs>, 2> born_{};
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
