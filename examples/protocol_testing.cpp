// Protocol testing: fuzz the TCP connection state machine and compare what
// the three generation strategies discover about it.
//
// Demonstrates the paper's core claim on the most state-machine-heavy
// benchmark: constraint solving covers the shallow handshake, simulation is
// throughput-bound, and model-oriented fuzzing drives deep sequences
// (teardown paths, TIME_WAIT expiry) within seconds.
//
//   $ ./build/examples/protocol_testing [seconds]
#include <cstdio>
#include <cstdlib>

#include "bench_models/bench_models.hpp"
#include "cftcg/experiment.hpp"
#include "cftcg/pipeline.hpp"
#include "coverage/report.hpp"

using namespace cftcg;

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 2.0;
  auto compiled = CompiledModel::FromXml(std::string(bench_models::Source("TCP")));
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.message().c_str());
    return 1;
  }
  auto cm = compiled.take();
  std::printf("TCP model: %d branch outcomes across %zu decisions\n", cm->NumBranches(),
              cm->spec().decisions().size());

  // Count how many of the decisions are chart transitions (the FSM edges).
  int transitions = 0;
  for (const auto& d : cm->spec().decisions()) {
    if (d.name.find("->") != std::string::npos) ++transitions;
  }
  std::printf("connection FSM transitions under test: %d\n\n", transitions);

  fuzz::FuzzBudget budget;
  budget.wall_seconds = seconds;
  for (Tool tool : {Tool::kSldv, Tool::kSimCoTest, Tool::kCftcg}) {
    const auto result = RunTool(*cm, tool, budget, 7);
    // How many FSM transition-taken outcomes did this tool trigger?
    vm::Machine machine(cm->instrumented());
    coverage::CoverageSink sink(cm->spec());
    const std::size_t tuple = cm->instrumented().TupleSize();
    for (const auto& tc : result.test_cases) {
      machine.Reset();
      for (std::size_t off = 0; off + tuple <= tc.data.size(); off += tuple) {
        sink.BeginIteration();
        machine.SetInputsFromBytes(tc.data.data() + off);
        machine.Step(&sink);
        sink.AccumulateIteration();
      }
    }
    int fsm_taken = 0;
    int fsm_total = 0;
    for (const auto& d : cm->spec().decisions()) {
      if (d.name.find("->") == std::string::npos) continue;
      ++fsm_total;
      if (sink.total().Test(static_cast<std::size_t>(cm->spec().OutcomeSlot(d.id, 0)))) {
        ++fsm_taken;
      }
    }
    std::printf("%-10s %s\n", std::string(ToolName(tool)).c_str(),
                coverage::FormatReport(result.report).c_str());
    std::printf("           FSM transitions fired: %d/%d | test cases: %zu | iterations: %llu\n",
                fsm_taken, fsm_total, result.test_cases.size(),
                static_cast<unsigned long long>(result.model_iterations));

    // Name a few transitions this tool never fired.
    int shown = 0;
    for (const auto& d : cm->spec().decisions()) {
      if (d.name.find("->") == std::string::npos || shown >= 3) continue;
      if (!sink.total().Test(static_cast<std::size_t>(cm->spec().OutcomeSlot(d.id, 0)))) {
        std::printf("           never fired: %s\n", d.name.c_str());
        ++shown;
      }
    }
    std::puts("");
  }
  return 0;
}
