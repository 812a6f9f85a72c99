// E5 — §4 execution-speed comparison: iterations/second of the compiled
// path (bytecode VM standing in for Clang-compiled fuzz code) vs the
// simulation engine (interpreter with per-step dispatch and logging).
//
// The paper reports >26,000 it/s for CFTCG vs 6 it/s for SimCoTest on
// SolarPV. Our absolute numbers differ (our interpreter is a lean C++ tree
// walker, not MATLAB's engine), but the *ratio* — compiled execution orders
// of magnitude ahead — is the load-bearing claim, and the extrapolated
// "hours to reach queue-full at simulation speed" story in
// bench_cputask_deepstate builds on it.
// A third pass re-runs the compiled path with the count-only self-profiler
// attached (one counter add per Step and per taken jump, strobe off, the
// pending counts flushed into the profile every 1024 iterations — at least
// as often as a campaign reads it: once per 1024-execution round), giving the
// `profile_overhead_pct` number the CI bench-gate holds to <= 5%.
#include <chrono>

#include "bench/bench_util.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "vm/profile.hpp"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cftcg;
  const auto args = bench::BenchArgs::Parse(argc, argv, /*budget=*/0.5, /*reps=*/1);

  std::printf("=== Execution speed: compiled fuzz code vs simulation engine (%.2fs each) ===\n",
              args.budget_s);
  bench::Table table({"Model", "VM it/s", "Profiled it/s", "Overhead", "Interp it/s", "Speedup"});
  bench::JsonSink json(args, "speed");
  for (const auto& name : args.ModelNames()) {
    auto cm = bench::CompileOrDie(name);
    const std::size_t tuple = cm->instrumented().TupleSize();
    Rng rng(args.seed);
    std::vector<std::uint8_t> buf(tuple);
    coverage::CoverageSink sink(cm->spec());

    // Compiled path, bare and with the always-on profiler plane attached
    // (count-only: strobe_period = 0, so no clock or sampling work — just
    // the dispatch counting and flushes every `fuzz` campaign now pays;
    // FlushProfile is a no-op on the bare passes). The two
    // configurations are interleaved in short alternating sub-passes and
    // each rate is the best sub-pass: max-rate filtering discards scheduler
    // preemptions and frequency excursions that would otherwise swamp the
    // few-percent overhead the bench gate holds to.
    vm::Machine machine(cm->instrumented());
    vm::ExecProfile profile;
    profile.AttachTo(cm->instrumented());
    constexpr int kSubPasses = 3;
    double vm_rate = 0;
    double prof_rate = 0;
    for (int pass = 0; pass < 2 * kSubPasses; ++pass) {
      const bool profiled = pass % 2 != 0;
      machine.set_profile(profiled ? &profile : nullptr);
      std::uint64_t iters = 0;
      const auto sub_start = std::chrono::steady_clock::now();
      while (Seconds(sub_start) < args.budget_s / kSubPasses) {
        for (int k = 0; k < 256; ++k) {
          rng.FillBytes(buf.data(), buf.size());
          sink.BeginIteration();
          machine.SetInputsFromBytes(buf.data());
          machine.Step(&sink);
          ++iters;
        }
        if (iters % 1024 == 0) machine.FlushProfile();
      }
      const double rate = static_cast<double>(iters) / Seconds(sub_start);
      double& best = profiled ? prof_rate : vm_rate;
      if (rate > best) best = rate;
    }
    machine.set_profile(nullptr);
    const double overhead_pct = vm_rate > 0 ? 100.0 * (vm_rate - prof_rate) / vm_rate : 0;

    // Simulation engine.
    sim::Interpreter interp(cm->scheduled(), /*log_signals=*/true);
    std::uint64_t interp_iters = 0;
    const auto start = std::chrono::steady_clock::now();
    while (Seconds(start) < args.budget_s) {
      for (int k = 0; k < 16; ++k) {
        rng.FillBytes(buf.data(), buf.size());
        sink.BeginIteration();
        interp.SetInputsFromBytes(buf.data());
        interp.Step(&sink);
        ++interp_iters;
      }
      if (interp.signal_log().size() > 100000) interp.ClearSignalLog();
    }
    const double interp_rate = static_cast<double>(interp_iters) / Seconds(start);

    table.AddRow({name, StrFormat("%.0f", vm_rate), StrFormat("%.0f", prof_rate),
                  StrFormat("%.1f%%", overhead_pct), StrFormat("%.0f", interp_rate),
                  StrFormat("%.0fx", vm_rate / interp_rate)});
    json.Add(bench::JsonSink::Row(name)
                 .Num("vm_iters_per_s", vm_rate)
                 .Num("vm_iters_per_s_profiled", prof_rate)
                 .Num("profile_overhead_pct", overhead_pct)
                 .Num("interp_iters_per_s", interp_rate)
                 .Num("speedup", vm_rate / interp_rate)
                 .Num("wall_s", 3 * args.budget_s));
  }
  table.Print();
  json.Write();
  std::puts("\n(paper on SolarPV: 26,000+ it/s compiled vs 6 it/s simulated; the shape to");
  std::puts(" reproduce is a large compiled-vs-interpreted gap on every model)");
  return 0;
}
