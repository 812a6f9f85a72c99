// C code emission.
//
// Produces the textual artifacts the paper shows:
//   * the model step function with model-level branch instrumentation
//     (CoverageStatistics() calls in every decision arm — Figure 4);
//   * the fuzz driver (FuzzTestOneInput) that splits the fuzzer's byte
//     stream into per-iteration tuples and decodes each one into the inport
//     variables (Figure 3) through the emitted <model>_decode, which decodes
//     like ir::Value::FromBytes (memcpy per field; booleans keep their low
//     bit, non-finite floats read as 0);
//   * the model init function.
//
// The emitted code is self-contained C99 (compiles with `gcc -std=c99`):
// tests verify it is syntactically valid when a compiler is available. The
// in-process execution path uses the VM lowering; both walk the same
// ScheduledModel, so the printed CoverageStatistics slot numbers match the
// VM's coverage space exactly.
#pragma once

#include <string>

#include "sched/schedule.hpp"
#include "support/status.hpp"

namespace cftcg::codegen {

struct CEmitOptions {
  bool model_instrumentation = true;
  std::string model_name;  // defaults to the model's own name
};

/// Emits the full fuzzing-code translation unit (init + step + driver).
Result<std::string> EmitC(const sched::ScheduledModel& sm, const CEmitOptions& opts);

}  // namespace cftcg::codegen
