// Lowering: ScheduledModel -> vm::Program.
//
// This is the reproduction's equivalent of the paper's code synthesis with
// branch instrumentation: every model decision becomes a *real conditional
// jump* in the bytecode, with coverage instructions (kCov / kMcdcEval)
// inserted in each arm exactly where the paper's CoverageStatistics() calls
// go (Figure 4). Two orthogonal switches:
//
//   * model_instrumentation — the paper's model-level branch instrumentation
//     (modes (a)-(d)). When OFF, boolean/min/abs/sign logic is compiled
//     branch-free (as Clang -O2 does), and no condition instrumentation is
//     emitted — this is the "Fuzz Only" configuration of Figure 8.
//   * edge_instrumentation — code-level edge marks (kEdge) at every *real*
//     branch arm, i.e. what an off-the-shelf fuzzer's compiler
//     instrumentation would see. Used as the "Fuzz Only" feedback signal.
//
// Numeric decision splits (saturation bounds, switch thresholds, relational
// guards) are also listed in the margin side table (vm::Program::margins),
// which costs no instruction: the goal solver and observed campaigns attach
// a MarginRecorder to the Machine running this same program.
#pragma once

#include "sched/schedule.hpp"
#include "support/status.hpp"
#include "vm/program.hpp"

namespace cftcg::codegen {

struct LoweringOptions {
  bool model_instrumentation = true;
  bool edge_instrumentation = false;
};

Result<vm::Program> LowerToBytecode(const sched::ScheduledModel& sm, const LoweringOptions& opts);

}  // namespace cftcg::codegen
