// E7 — engineering micro-benchmarks (google-benchmark): the hot pieces of
// the fuzzing loop, so throughput regressions are visible.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_models/bench_models.hpp"
#include "cftcg/pipeline.hpp"
#include "coverage/report.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutator.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"

namespace {

using namespace cftcg;

std::unique_ptr<CompiledModel>& SolarPv() {
  static auto cm = [] {
    auto model = bench_models::Build("SolarPV").take();
    auto compiled = CompiledModel::FromModel(std::move(model));
    return compiled.take();
  }();
  return cm;
}

void BM_VmStep(benchmark::State& state) {
  auto& cm = SolarPv();
  vm::Machine machine(cm->instrumented());
  coverage::CoverageSink sink(cm->spec());
  Rng rng(1);
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  rng.FillBytes(buf.data(), buf.size());
  machine.SetInputsFromBytes(buf.data());
  for (auto _ : state) {
    sink.BeginIteration();
    machine.Step(&sink);
    benchmark::DoNotOptimize(sink.curr());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VmStep);

void BM_VmStepUninstrumented(benchmark::State& state) {
  auto& cm = SolarPv();
  vm::Machine machine(cm->fuzz_only());
  std::vector<std::uint8_t> edges(static_cast<std::size_t>(cm->fuzz_only().num_edges));
  Rng rng(1);
  std::vector<std::uint8_t> buf(cm->fuzz_only().TupleSize());
  rng.FillBytes(buf.data(), buf.size());
  machine.SetInputsFromBytes(buf.data());
  for (auto _ : state) {
    machine.Step(nullptr, edges.data());
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VmStepUninstrumented);

void BM_InterpreterStep(benchmark::State& state) {
  auto& cm = SolarPv();
  sim::Interpreter interp(cm->scheduled(), /*log_signals=*/true);
  coverage::CoverageSink sink(cm->spec());
  Rng rng(1);
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  rng.FillBytes(buf.data(), buf.size());
  interp.SetInputsFromBytes(buf.data());
  for (auto _ : state) {
    sink.BeginIteration();
    interp.Step(&sink);
    if (interp.signal_log().size() > 4096) interp.ClearSignalLog();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InterpreterStep);

void BM_TupleMutation(benchmark::State& state) {
  auto& cm = SolarPv();
  fuzz::TupleMutator mut(fuzz::TupleLayout(cm->instrumented().input_types), 128);
  Rng rng(2);
  auto data = mut.RandomInput(32, rng);
  auto partner = mut.RandomInput(32, rng);
  for (auto _ : state) {
    data = mut.Mutate(data, partner, rng);
    if (data.empty()) data = mut.RandomInput(32, rng);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TupleMutation);

void BM_ByteMutation(benchmark::State& state) {
  fuzz::ByteMutator mut(128 * 9);
  Rng rng(3);
  std::vector<std::uint8_t> data(288);
  rng.FillBytes(data.data(), data.size());
  for (auto _ : state) {
    data = mut.Mutate(data, data, rng);
    if (data.empty()) data.assign(288, 0);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ByteMutation);

void BM_Algorithm1WholeInput(benchmark::State& state) {
  auto& cm = SolarPv();
  fuzz::FuzzerOptions options;
  fuzz::Fuzzer fuzzer(cm->instrumented(), cm->spec(), options);
  fuzz::TupleMutator mut(fuzz::TupleLayout(cm->instrumented().input_types), 128);
  Rng rng(4);
  const auto data = mut.RandomInput(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    bool found_new = false;
    std::size_t slots = 0;
    benchmark::DoNotOptimize(fuzzer.RunOneInstrumented(data, &found_new, &slots));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Algorithm1WholeInput)->Arg(8)->Arg(64);

void BM_CoverageDiff(benchmark::State& state) {
  DynamicBitset a(static_cast<std::size_t>(state.range(0)));
  DynamicBitset b(static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < state.range(0) / 3; ++i) {
    a.Set(rng.NextIndex(static_cast<std::size_t>(state.range(0))));
    b.Set(rng.NextIndex(static_cast<std::size_t>(state.range(0))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CountDifferences(b));
    benchmark::DoNotOptimize(a.MergeAndCountNew(b));
  }
}
BENCHMARK(BM_CoverageDiff)->Arg(256)->Arg(4096);

void BM_McdcReport(benchmark::State& state) {
  auto& cm = SolarPv();
  coverage::CoverageSink sink(cm->spec());
  vm::Machine machine(cm->instrumented());
  Rng rng(6);
  std::vector<std::uint8_t> buf(cm->instrumented().TupleSize());
  for (int k = 0; k < 500; ++k) {
    rng.FillBytes(buf.data(), buf.size());
    sink.BeginIteration();
    machine.SetInputsFromBytes(buf.data());
    machine.Step(&sink);
    sink.AccumulateIteration();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverage::ComputeReport(sink));
  }
}
BENCHMARK(BM_McdcReport);

void BM_ModelCompile(benchmark::State& state) {
  for (auto _ : state) {
    auto model = bench_models::Build("SolarPV").take();
    auto cm = CompiledModel::FromModel(std::move(model));
    benchmark::DoNotOptimize(cm.ok());
  }
}
BENCHMARK(BM_ModelCompile);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the other benches take
// `--json FILE`, so this one does too — translated into google-benchmark's
// native JSON writer flags (--benchmark_out / --benchmark_out_format).
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[i + 1];
      ++i;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
