// Native code for Machine::Step: a one-pass translator from vm::Program to
// x86-64 machine code, run in-process.
//
// Each bytecode instruction becomes a short template at its own label.
// Registers, input/output slots and state live in two register files in
// memory, addressed off two base registers (FileLayout). A register also
// has a home — a machine register it occupies for its whole live interval,
// found by linear scan over the program's control-flow graph — when one is
// free; templates read it from there. Every definition is written through,
// to the file and the home, so the files are the interpreter's at every
// instruction boundary, and every Machine observable — registers, outputs,
// state, coverage bits, MCDC evaluations, TORC operands, profile counts and
// strobe samples, margin distances — is exactly what the interpreter
// produces. Control flow is direct jcc/jmp between instruction labels. The
// hot opcodes have inline templates, TORC included (two shared routines
// write the CmpTrace ring directly); every other opcode calls one
// out-of-line hook that runs the interpreter's own per-opcode code, and
// reloads the homes the call may have clobbered.
//
// A translation is specialised on its NativeConfig (profile counting,
// strobe, margins); the per-Step pointers (sink, edge map, cmp trace) come
// in a NativeFrame. The code lives in a W^X mapping owned by a NativeCode:
// mapped read-write, filled, then remapped read-execute, never both.
//
// TranslateX64 returns an empty NativeCode when the build does not target
// x86-64, when the host refuses an executable mapping, or when the program
// is outside what the translator accepts (an operand or jump target out of
// range); the Machine then runs the interpreter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "vm/program.hpp"

namespace cftcg::coverage {
class CoverageSink;
}  // namespace cftcg::coverage

namespace cftcg::vm {

class CmpTrace;

/// True when this build emits native code: an x86-64 SysV target.
#if defined(__x86_64__) && !defined(_WIN32)
inline constexpr bool kNativeTarget = true;
#else
inline constexpr bool kNativeTarget = false;
#endif

/// One register file's regions, in 8-byte elements from its start: the
/// registers [0, in), the input slots [in, out), the output slots
/// [out, state), the state slots [state, size).
struct FileLayout {
  std::int32_t in = 0;
  std::int32_t out = 0;
  std::int32_t state = 0;
  std::int32_t size = 0;

  static FileLayout Of(int regs, std::size_t inputs, std::size_t outputs, std::size_t states) {
    FileLayout l;
    l.in = regs;
    l.out = l.in + static_cast<std::int32_t>(inputs);
    l.state = l.out + static_cast<std::int32_t>(outputs);
    l.size = l.state + static_cast<std::int32_t>(states);
    return l;
  }
};

/// What one native Step reads and writes besides the register files. The
/// Machine fills one per Step; the code addresses it off a base register,
/// so its layout is part of the translation.
struct NativeFrame {
  double* d = nullptr;             // the double file (FileLayout)
  std::int64_t* r = nullptr;       // the int file
  std::uint64_t* cov = nullptr;    // the sink's curr words, or dropped writes
  std::uint8_t* edges = nullptr;   // the edge map, or dropped writes
  // The sink's known evaluations (CoverageSink::known_evals, its repeat
  // filter), or zeros.
  const std::uint64_t* known_evals = nullptr;
  CmpTrace* cmp_trace = nullptr;  // the TORC ring the code records into, or none
  std::uint64_t* edges_counted = nullptr;  // count plane: counted edges per pc
  std::uint64_t* samples = nullptr;     // strobe samples per pc
  std::uint64_t strobe_period = 0;
  std::uint64_t strobe_countdown = 0;   // in at entry, out at every exit
  std::uint64_t back_jumps = 0;         // the back-edge budget
  coverage::CoverageSink* sink = nullptr;
  void* owner = nullptr;                // the Machine, for the hooks
};

/// An out-of-line call from native code: the frame and the pc of the
/// instruction it is made for.
using NativeHook = void (*)(NativeFrame* frame, std::int32_t pc);

struct NativeHooks {
  NativeHook slow = nullptr;     // runs instruction pc (any non-control opcode)
  NativeHook margins = nullptr;  // records the margin sites of pc
};

/// The optional planes one translation carries.
struct NativeConfig {
  bool count = false;    // the count plane's edges into NativeFrame::edges_counted
  bool strobe = false;   // the per-instruction sample countdown
  bool margins = false;  // the margins hook at every pc that has sites
};

/// One translation: executable code in its own mapping, released with the
/// object. Move-only, so no two owners ever share or double-free a mapping.
class NativeCode {
 public:
  NativeCode() = default;
  ~NativeCode();
  NativeCode(NativeCode&& other) noexcept { Swap(other); }
  NativeCode& operator=(NativeCode&& other) noexcept {
    if (this != &other) {
      NativeCode gone(std::move(*this));
      Swap(other);
    }
    return *this;
  }
  NativeCode(const NativeCode&) = delete;
  NativeCode& operator=(const NativeCode&) = delete;

  explicit operator bool() const { return entry_ != nullptr; }

  /// Runs one model iteration: -1 when it reached kHalt, otherwise the pc
  /// whose backward transfer exhausted the back-edge budget.
  std::int64_t Run(NativeFrame* frame) const { return entry_(frame); }

  /// Bytes of machine code (the mapping is rounded up to whole pages).
  [[nodiscard]] std::size_t code_bytes() const { return code_bytes_; }

 private:
  friend NativeCode TranslateX64(const Program& program, const FileLayout& d,
                                 const FileLayout& i, const NativeConfig& config,
                                 const NativeHooks& hooks);
  using Entry = std::int64_t (*)(NativeFrame*);

  /// Copies `code` into a fresh read-write mapping, then makes it
  /// read-execute. Empty when either step is refused.
  static NativeCode Map(const std::vector<std::uint8_t>& code);
  void Swap(NativeCode& other) noexcept;

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t code_bytes_ = 0;
  Entry entry_ = nullptr;
};

/// Translates `program` for register files laid out as `d` and `i`.
NativeCode TranslateX64(const Program& program, const FileLayout& d, const FileLayout& i,
                        const NativeConfig& config, const NativeHooks& hooks);

}  // namespace cftcg::vm
