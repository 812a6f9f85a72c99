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
// Per model:
//   * `vm_iters_per_s`: Machine::Step, which runs native code wherever the
//     host allows it (and the bytecode interpreter otherwise), and
//     `bytecode_iters_per_s`: Machine::StepBytecode, the interpreter. Both
//     are the best of three interleaved sub-passes: max-rate filtering
//     discards scheduler preemptions. `native_speedup` is their ratio
//     measured in pairs: the median, over 41 alternating pairs of equal
//     sub-passes, of StepBytecode's time over Step's, so host speed cancels
//     out of it (the CI bench-gate holds it, too).
//   * `campaign_iters_per_s`: the same Machine in a fuzzing lane's shape —
//     a CmpTrace (TORC) and the count plane attached, the lane's step
//     budget, a Reset per 28-tuple input, and the sink's fused per-iteration
//     pass (CoverageSink::FinishIteration) after every Step — over fixed
//     seeded inputs, best of three sub-passes.
//   * `profile_overhead_pct`: the count-only self-profiler's cost (one
//     counter add per Step and per counted transfer, the pending counts
//     flushed every 1024 iterations — at least as often as a campaign reads
//     them: once per 1024-execution round), which the CI bench-gate holds to
//     <= 5% in the median over models; and `margins_overhead_pct`, a
//     MarginRecorder attached, as every observed campaign has. Each is the
//     median over alternating pairs of equal sub-passes on two Machines
//     (plain and with the plane), with the interquartile range of the pairs
//     beside it (`*_iqr_pct`): a few-percent overhead needs a paired
//     measurement, best-of-N rates of separate passes do not resolve it.
// `native_translate_us` and `native_code_bytes` are one translation of the
// plain configuration.
#include <algorithm>
#include <chrono>

#include "bench/bench_util.hpp"
#include "coverage/sink.hpp"
#include "fuzz/fuzzer.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "vm/cmp_trace.hpp"
#include "vm/profile.hpp"

namespace {

using namespace cftcg;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Fixed seeded tuples, replayed cyclically by every pass.
struct Tuples {
  std::vector<std::uint8_t> bytes;
  std::size_t size = 0;
  std::size_t count = 0;

  Tuples(std::size_t tuple_size, std::size_t n, std::uint64_t seed)
      : bytes(std::max<std::size_t>(tuple_size, 1) * n), size(tuple_size), count(n) {
    Rng rng(seed);
    rng.FillBytes(bytes.data(), bytes.size());
  }
  [[nodiscard]] const std::uint8_t* at(std::size_t k) const {
    return bytes.data() + (k % count) * size;
  }
};

/// `iters` Steps of `machine` over the tuples, the profile flushed every
/// 1024 iterations; returns the seconds taken.
double TimedSteps(vm::Machine& machine, coverage::CoverageSink& sink, const Tuples& tuples,
                  std::uint64_t iters, bool bytecode = false) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < iters; ++k) {
    sink.BeginIteration();
    machine.SetInputsFromBytes(tuples.at(k));
    if (bytecode) {
      machine.StepBytecode(&sink);
    } else {
      machine.Step(&sink);
    }
    if (k % 1024 == 1023) machine.FlushProfile();
  }
  return Seconds(start);
}

/// One lane-shaped pass: `inputs` inputs of 28 tuples, each after a Reset,
/// with the fused bookkeeping after every Step; returns the seconds taken.
double TimedCampaign(vm::Machine& machine, coverage::CoverageSink& sink, DynamicBitset& last,
                     const Tuples& tuples, std::uint64_t inputs) {
  constexpr std::uint64_t kTuplesPerInput = 28;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t n = 0; n < inputs; ++n) {
    machine.Reset();
    last.ClearAll();
    for (std::uint64_t k = 0; k < kTuplesPerInput; ++k) {
      machine.SetInputsFromBytes(tuples.at(n * kTuplesPerInput + k));
      if (!machine.Step(&sink)) {
        sink.BeginIteration();
        break;
      }
      sink.FinishIteration(last);
    }
    if (n % 32 == 31) machine.FlushProfile();
  }
  return Seconds(start);
}

/// The median and the interquartile range of `v` (sorted in place).
std::pair<double, double> MedianIqr(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) { return v[static_cast<std::size_t>(q * (v.size() - 1) + 0.5)]; };
  return {at(0.5), at(0.75) - at(0.25)};
}

/// A plane's overhead over the plain Machine: `pairs` alternating pairs of
/// equal sub-passes (the order flips every pair), each pair giving
/// 100 * (t_plane - t_plain) / t_plain. Returns the median overhead, its
/// interquartile range and the median rate with the plane.
struct Overhead {
  double median_pct = 0;
  double iqr_pct = 0;
  double rate = 0;
};
Overhead PairedOverhead(vm::Machine& plain, vm::Machine& plane, coverage::CoverageSink& sink,
                        const Tuples& tuples, std::uint64_t iters, int pairs) {
  std::vector<double> pct;
  std::vector<double> rates;
  for (int k = 0; k < pairs; ++k) {
    double t_plain = 0;
    double t_plane = 0;
    if (k % 2 == 0) {
      t_plain = TimedSteps(plain, sink, tuples, iters);
      t_plane = TimedSteps(plane, sink, tuples, iters);
    } else {
      t_plane = TimedSteps(plane, sink, tuples, iters);
      t_plain = TimedSteps(plain, sink, tuples, iters);
    }
    pct.push_back(100.0 * (t_plane - t_plain) / t_plain);
    rates.push_back(static_cast<double>(iters) / t_plane);
  }
  Overhead out;
  std::tie(out.median_pct, out.iqr_pct) = MedianIqr(pct);
  out.rate = MedianIqr(rates).first;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::Parse(argc, argv, /*budget=*/0.5, /*reps=*/1);

  std::printf("=== Execution speed: compiled fuzz code vs simulation engine (%.2fs each) ===\n",
              args.budget_s);
  bench::Table table({"Model", "VM it/s", "Bytecode it/s", "Native", "Campaign it/s",
                      "Profile overhead", "Margins overhead", "Interp it/s", "Speedup",
                      "Translate"});
  bench::JsonSink json(args, "speed");
  for (const auto& name : args.ModelNames()) {
    const auto model_start = std::chrono::steady_clock::now();
    auto cm = bench::CompileOrDie(name);
    const vm::Program& program = cm->instrumented();
    const Tuples tuples(program.TupleSize(), 28 * 64, args.seed);
    coverage::CoverageSink sink(cm->spec());

    // One translation of the plain configuration, timed on its own.
    vm::Machine fresh(program);
    fresh.Step(&sink);
    const double translate_us = fresh.native_translate_us();
    const std::size_t code_bytes = fresh.native_code_bytes();

    // Step and StepBytecode: best of three interleaved sub-passes of 256
    // iterations at a time.
    vm::Machine machine(program);
    constexpr int kSubPasses = 3;
    double rate[2] = {};
    for (int pass = 0; pass < 2 * kSubPasses; ++pass) {
      const bool bytecode = pass % 2 == 1;
      std::uint64_t iters = 0;
      const auto sub_start = std::chrono::steady_clock::now();
      while (Seconds(sub_start) < args.budget_s / kSubPasses) {
        TimedSteps(machine, sink, tuples, 256, bytecode);
        iters += 256;
      }
      rate[bytecode ? 1 : 0] =
          std::max(rate[bytecode ? 1 : 0], static_cast<double>(iters) / Seconds(sub_start));
    }
    const double vm_rate = rate[0];

    // The lane's shape (see the file comment).
    vm::Machine lane(program);
    vm::CmpTrace cmp_trace;
    lane.set_cmp_trace(&cmp_trace);
    lane.set_step_budget(fuzz::FuzzerOptions{}.step_budget);
    vm::ExecProfile lane_profile;
    lane_profile.AttachTo(program);
    lane.set_profile(&lane_profile);
    coverage::CoverageSink lane_sink(cm->spec());
    DynamicBitset last(static_cast<std::size_t>(cm->spec().FuzzBranchCount()));
    double campaign_rate = 0;
    for (int pass = 0; pass < kSubPasses; ++pass) {
      std::uint64_t inputs = 0;
      const auto sub_start = std::chrono::steady_clock::now();
      while (Seconds(sub_start) < args.budget_s / kSubPasses) {
        TimedCampaign(lane, lane_sink, last, tuples, 16);
        inputs += 16;
      }
      campaign_rate =
          std::max(campaign_rate, static_cast<double>(inputs * 28) / Seconds(sub_start));
    }

    // The planes' overheads, paired. A sub-pass lasts about 2 ms at the
    // plain rate at the default budget, so the 41 pairs of each plane take
    // about a third of a budget.
    const auto pair_iters =
        static_cast<std::uint64_t>(std::max(1024.0, vm_rate * args.budget_s / 250));
    constexpr int kPairs = 41;
    vm::Machine plain(program);
    vm::Machine profiled(program);
    vm::ExecProfile profile;
    profile.AttachTo(program);
    profiled.set_profile(&profile);
    vm::Machine margined(program);
    coverage::MarginRecorder margins;
    margins.Reset(cm->spec());
    margined.set_margins(&margins);
    const Overhead prof = PairedOverhead(plain, profiled, sink, tuples, pair_iters, kPairs);
    const Overhead marg = PairedOverhead(plain, margined, sink, tuples, pair_iters, kPairs);
    // Native code's speedup, paired the same way: StepBytecode's time over
    // Step's for each pair, the median. Host drift cancels within a pair;
    // the best-of-three rates above come from sub-passes far apart in time.
    std::vector<double> speedups;
    for (int k = 0; k < kPairs; ++k) {
      const bool bytecode_first = k % 2 == 1;
      const double first = TimedSteps(plain, sink, tuples, pair_iters, bytecode_first);
      const double second = TimedSteps(plain, sink, tuples, pair_iters, !bytecode_first);
      speedups.push_back(bytecode_first ? first / second : second / first);
    }
    const double native_speedup = MedianIqr(speedups).first;

    // Simulation engine.
    sim::Interpreter interp(cm->scheduled(), /*log_signals=*/true);
    std::uint64_t interp_iters = 0;
    const auto start = std::chrono::steady_clock::now();
    while (Seconds(start) < args.budget_s) {
      for (int k = 0; k < 16; ++k) {
        sink.BeginIteration();
        interp.SetInputsFromBytes(tuples.at(interp_iters));
        interp.Step(&sink);
        ++interp_iters;
      }
      if (interp.signal_log().size() > 100000) interp.ClearSignalLog();
    }
    const double interp_rate = static_cast<double>(interp_iters) / Seconds(start);

    table.AddRow({name, StrFormat("%.0f", vm_rate), StrFormat("%.0f", rate[1]),
                  StrFormat("%.2fx", native_speedup), StrFormat("%.0f", campaign_rate),
                  StrFormat("%.1f%% iqr %.1f", prof.median_pct, prof.iqr_pct),
                  StrFormat("%.1f%% iqr %.1f", marg.median_pct, marg.iqr_pct),
                  StrFormat("%.0f", interp_rate), StrFormat("%.0fx", vm_rate / interp_rate),
                  StrFormat("%.0fus %zuB", translate_us, code_bytes)});
    json.Add(bench::JsonSink::Row(name)
                 .Num("vm_iters_per_s", vm_rate)
                 .Num("bytecode_iters_per_s", rate[1])
                 .Num("native_speedup", native_speedup)
                 .Num("campaign_iters_per_s", campaign_rate)
                 .Num("vm_iters_per_s_profiled", prof.rate)
                 .Num("profile_overhead_pct", prof.median_pct)
                 .Num("profile_overhead_iqr_pct", prof.iqr_pct)
                 .Num("vm_iters_per_s_margins", marg.rate)
                 .Num("margins_overhead_pct", marg.median_pct)
                 .Num("margins_overhead_iqr_pct", marg.iqr_pct)
                 .Num("interp_iters_per_s", interp_rate)
                 .Num("speedup", vm_rate / interp_rate)
                 .Num("native_translate_us", translate_us)
                 .Num("native_code_bytes", static_cast<double>(code_bytes))
                 .Num("wall_s", Seconds(model_start)));
  }
  table.Print();
  json.Write();
  std::puts("\n(Overheads are medians over 41 alternating pairs, with their interquartile range.)");
  std::puts("(paper on SolarPV: 26,000+ it/s compiled vs 6 it/s simulated; the shape to");
  std::puts(" reproduce is a large compiled-vs-interpreted gap on every model)");
  return 0;
}
