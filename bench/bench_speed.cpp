// E5 — §4 execution-speed comparison: iterations/second of the compiled
// path (the model's vm::Program run as native code, standing in for
// Clang-compiled fuzz code) vs the simulation engine (interpreter with
// per-step dispatch and logging).
//
// The paper reports >26,000 it/s for CFTCG vs 6 it/s for SimCoTest on
// SolarPV. Our absolute numbers differ (our interpreter is a lean C++ tree
// walker, not MATLAB's engine), but the *ratio* — compiled execution orders
// of magnitude ahead — is the load-bearing claim, and the extrapolated
// "hours to reach queue-full at simulation speed" story in
// bench_cputask_deepstate builds on it.
// Per model, four configurations of one Machine are interleaved:
//   * `vm_iters_per_s`: Machine::Step, which runs native code wherever the
//     host allows it (and the bytecode interpreter otherwise);
//   * `bytecode_iters_per_s`: Machine::StepBytecode, the interpreter, and
//     `native_speedup`, the ratio of the two;
//   * the count-only self-profiler attached (one counter add per Step and
//     per taken jump, strobe off, the pending counts flushed into the
//     profile every 1024 iterations — at least as often as a campaign reads
//     it: once per 1024-execution round), giving the `profile_overhead_pct`
//     number the CI bench-gate holds to <= 5%;
//   * a MarginRecorder attached, as every observed campaign has, giving
//     `margins_overhead_pct`.
// `native_translate_us` and `native_code_bytes` are one translation of the
// plain configuration.
#include <chrono>

#include "bench/bench_util.hpp"
#include "coverage/sink.hpp"
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
  bench::Table table({"Model", "VM it/s", "Bytecode it/s", "Native", "Profiled it/s", "Overhead",
                      "Margins it/s", "Overhead", "Interp it/s", "Speedup", "Translate"});
  bench::JsonSink json(args, "speed");
  for (const auto& name : args.ModelNames()) {
    auto cm = bench::CompileOrDie(name);
    const vm::Program& program = cm->instrumented();
    const std::size_t tuple = program.TupleSize();
    Rng rng(args.seed);
    std::vector<std::uint8_t> buf(tuple);
    coverage::CoverageSink sink(cm->spec());

    // One translation of the plain configuration, timed on its own.
    vm::Machine fresh(program);
    fresh.Step(&sink);
    const double translate_us = fresh.native_translate_us();
    const std::size_t code_bytes = fresh.native_code_bytes();

    // The compiled path in four configurations (see the file comment; the
    // profiled one is count-only: strobe_period = 0, so no clock or
    // sampling work — just the dispatch counting and flushes every `fuzz`
    // campaign pays; FlushProfile is a no-op on the other passes). They are
    // interleaved in short alternating sub-passes and each rate is the best
    // sub-pass: max-rate filtering discards scheduler preemptions and
    // frequency excursions that would otherwise swamp the few-percent
    // overheads the bench gate holds to.
    enum Config { kNative, kBytecode, kProfiled, kMargins, kConfigs };
    vm::Machine machine(program);
    vm::ExecProfile profile;
    profile.AttachTo(program);
    coverage::MarginRecorder margins;
    margins.Reset(cm->spec());
    constexpr int kSubPasses = 3;
    double rate[kConfigs] = {};
    for (int pass = 0; pass < kConfigs * kSubPasses; ++pass) {
      const int config = pass % kConfigs;
      machine.set_profile(config == kProfiled ? &profile : nullptr);
      machine.set_margins(config == kMargins ? &margins : nullptr);
      std::uint64_t iters = 0;
      const auto sub_start = std::chrono::steady_clock::now();
      while (Seconds(sub_start) < args.budget_s / kSubPasses) {
        for (int k = 0; k < 256; ++k) {
          rng.FillBytes(buf.data(), buf.size());
          sink.BeginIteration();
          machine.SetInputsFromBytes(buf.data());
          if (config == kBytecode) {
            machine.StepBytecode(&sink);
          } else {
            machine.Step(&sink);
          }
          ++iters;
        }
        if (iters % 1024 == 0) machine.FlushProfile();
      }
      rate[config] = std::max(rate[config], static_cast<double>(iters) / Seconds(sub_start));
    }
    machine.set_profile(nullptr);
    machine.set_margins(nullptr);
    const double vm_rate = rate[kNative];
    const auto overhead = [&](int config) {
      return vm_rate > 0 ? 100.0 * (vm_rate - rate[config]) / vm_rate : 0.0;
    };

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

    table.AddRow({name, StrFormat("%.0f", vm_rate), StrFormat("%.0f", rate[kBytecode]),
                  StrFormat("%.2fx", vm_rate / rate[kBytecode]),
                  StrFormat("%.0f", rate[kProfiled]), StrFormat("%.1f%%", overhead(kProfiled)),
                  StrFormat("%.0f", rate[kMargins]), StrFormat("%.1f%%", overhead(kMargins)),
                  StrFormat("%.0f", interp_rate), StrFormat("%.0fx", vm_rate / interp_rate),
                  StrFormat("%.0fus %zuB", translate_us, code_bytes)});
    json.Add(bench::JsonSink::Row(name)
                 .Num("vm_iters_per_s", vm_rate)
                 .Num("bytecode_iters_per_s", rate[kBytecode])
                 .Num("native_speedup", vm_rate / rate[kBytecode])
                 .Num("vm_iters_per_s_profiled", rate[kProfiled])
                 .Num("profile_overhead_pct", overhead(kProfiled))
                 .Num("vm_iters_per_s_margins", rate[kMargins])
                 .Num("margins_overhead_pct", overhead(kMargins))
                 .Num("interp_iters_per_s", interp_rate)
                 .Num("speedup", vm_rate / interp_rate)
                 .Num("native_translate_us", translate_us)
                 .Num("native_code_bytes", static_cast<double>(code_bytes))
                 .Num("wall_s", (kConfigs + 1) * args.budget_s));
  }
  table.Print();
  json.Write();
  std::puts("\n(paper on SolarPV: 26,000+ it/s compiled vs 6 it/s simulated; the shape to");
  std::puts(" reproduce is a large compiled-vs-interpreted gap on every model)");
  return 0;
}
