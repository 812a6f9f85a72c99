// C code emission: the printer of a lowered vm::Program.
//
// Produces the textual artifacts the paper shows, from the one program the
// bytecode interpreter and the native code run:
//   * the model step function with model-level branch instrumentation
//     (CoverageStatistics() calls in every decision arm — Figure 4): one C
//     statement per instruction, registers as double/int64_t locals, the
//     constant pool as const locals, state slots as statics, a label per
//     jump target and a block-path comment wherever the emitting block
//     changes;
//   * the model init function, which sets every state slot to its initial
//     value as Machine::Reset does;
//   * the fuzz driver (FuzzTestOneInput) that splits the fuzzer's byte
//     stream into per-iteration tuples and decodes each one into the inport
//     variables (Figure 3) through the emitted <model>_decode, which decodes
//     like ir::Value::FromBytes (memcpy per field; booleans keep their low
//     bit, non-finite floats read as 0).
//
// The output is self-contained C99. A static prelude mirrors the VM's
// per-opcode semantics (src/vm/machine.cpp, Compute): guarded division and
// remainder, saturating float->int truncation, wrap to the declared width,
// and integer add/sub/mul computed unsigned. So the printed program has no
// signed overflow or out-of-range shift, and it computes what the VM
// computes: slot numbering, division, wraparound and decode agree by
// construction.
#pragma once

#include <string>
#include <string_view>

#include "support/status.hpp"
#include "vm/program.hpp"

namespace cftcg::codegen {

/// Prints `program` as one translation unit (init + step + decode + driver)
/// whose functions are named after `model_name`. Fails on a kEdge
/// instruction (compiled C gets edge feedback from the compiler's own
/// instrumentation), on a register, jump target or slot index outside the
/// program, and when the port names do not match the port types.
Result<std::string> EmitC(const vm::Program& program, std::string_view model_name);

}  // namespace cftcg::codegen
