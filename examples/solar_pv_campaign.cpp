// The paper's end-to-end story on its running example: the SolarPV model.
//
// Saves the model to XML (the .cmx interchange format), reloads it, emits
// the complete instrumented fuzzing code to a .c file, runs a CFTCG
// campaign next to a "Fuzz Only" campaign, and writes the generated test
// cases as CSV files (the format the paper's conversion tool produces for
// Simulink's coverage tooling).
//
//   $ ./build/examples/solar_pv_campaign [seconds] [outdir]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bench_models/bench_models.hpp"
#include "cftcg/experiment.hpp"
#include "cftcg/pipeline.hpp"
#include "coverage/report.hpp"
#include "fuzz/csv_export.hpp"
#include "parser/model_io.hpp"
#include "support/strings.hpp"

using namespace cftcg;

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 3.0;
  const std::string outdir = argc > 2 ? argv[2] : "/tmp/cftcg_solarpv";
  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", outdir.c_str(), ec.message().c_str());
    return 1;
  }

  // Build -> save -> reload, demonstrating the model interchange path.
  auto built = bench_models::Build("SolarPV");
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.message().c_str());
    return 1;
  }
  const std::string model_path = outdir + "/SolarPV.cmx";
  if (!parser::SaveModelFile(*built.value(), model_path).ok()) return 1;
  std::printf("model written to %s\n", model_path.c_str());

  auto compiled = CompiledModel::FromFile(model_path);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.message().c_str());
    return 1;
  }
  auto cm = compiled.take();
  std::printf("SolarPV: %d branch outcomes, tuple = %zu bytes (Figure 3's dataLen)\n",
              cm->NumBranches(), cm->instrumented().TupleSize());

  // Emit the full instrumented fuzzing code.
  auto code = cm->EmitFuzzingCode();
  if (code.ok()) {
    std::ofstream out(outdir + "/SolarPV_fuzz.c");
    out << code.value();
    std::printf("instrumented fuzzing code written to %s/SolarPV_fuzz.c (%zu bytes)\n",
                outdir.c_str(), code.value().size());
  }

  // CFTCG campaign vs Fuzz Only campaign.
  fuzz::FuzzBudget budget;
  budget.wall_seconds = seconds;
  std::printf("\nrunning CFTCG for %.1fs...\n", seconds);
  const auto cftcg_run = RunTool(*cm, Tool::kCftcg, budget, 1);
  std::printf("  CFTCG    : %s | %zu test cases | %llu iterations\n",
              coverage::FormatReport(cftcg_run.report).c_str(), cftcg_run.test_cases.size(),
              static_cast<unsigned long long>(cftcg_run.model_iterations));
  const auto fuzz_only = RunTool(*cm, Tool::kFuzzOnly, budget, 1);
  std::printf("  Fuzz Only: %s | %zu test cases\n",
              coverage::FormatReport(fuzz_only.report).c_str(), fuzz_only.test_cases.size());

  // Export CFTCG's test suite as CSV files.
  fuzz::TupleLayout layout(cm->instrumented().input_types);
  const std::vector<std::string> names = {"Enable", "Power", "PanelID"};
  int written = 0;
  for (std::size_t i = 0; i < cftcg_run.test_cases.size(); ++i) {
    std::ofstream out(StrFormat("%s/test_%03zu.csv", outdir.c_str(), i));
    out << fuzz::TestCaseToCsv(layout, names, cftcg_run.test_cases[i].data);
    ++written;
  }
  std::printf("\n%d CSV test cases written to %s/\n", written, outdir.c_str());

  // Show what remains uncovered (the DESIGN.md-style analysis).
  vm::Machine machine(cm->instrumented());
  coverage::CoverageSink sink(cm->spec());
  for (const auto& tc : cftcg_run.test_cases) {
    machine.Reset();
    const std::size_t tuple = cm->instrumented().TupleSize();
    for (std::size_t off = 0; off + tuple <= tc.data.size(); off += tuple) {
      sink.BeginIteration();
      machine.SetInputsFromBytes(tc.data.data() + off);
      machine.Step(&sink);
      sink.AccumulateIteration();
    }
  }
  const auto uncovered = coverage::UncoveredOutcomes(cm->spec(), sink.total());
  std::printf("\nuncovered decision outcomes after replaying the suite: %zu\n", uncovered.size());
  for (std::size_t i = 0; i < uncovered.size() && i < 8; ++i) {
    std::printf("  %s\n", uncovered[i].c_str());
  }
  return 0;
}
