#include "cftcg/pipeline.hpp"

#include "obs/timer.hpp"
#include "parser/model_io.hpp"

namespace cftcg {

// Every pipeline stage runs under an obs::ScopedTimer recording a
// `phase.<name>.seconds` histogram in the global registry (parse →
// analyze+schedule → codegen → vm_load → fuzz); the CLI's --metrics flag
// dumps them, and `cftcg trace-summary` reads the matching `phase` trace
// events.

Result<std::unique_ptr<CompiledModel>> CompiledModel::FromModel(
    std::unique_ptr<ir::Model> model) {
  auto compiled = std::unique_ptr<CompiledModel>(new CompiledModel());
  compiled->model_ = std::move(model);
  {
    obs::ScopedTimer span("analyze_schedule");
    auto scheduled = sched::AnalyzeAndSchedule(*compiled->model_);
    if (!scheduled.ok()) return scheduled.status();
    compiled->scheduled_ = scheduled.take();
  }
  obs::ScopedTimer span("codegen");
  codegen::LoweringOptions opts;
  opts.model_instrumentation = true;
  auto program = codegen::LowerToBytecode(compiled->scheduled_, opts);
  if (!program.ok()) return program.status();
  compiled->instrumented_ = program.take();
  return compiled;
}

Result<std::unique_ptr<CompiledModel>> CompiledModel::FromXml(const std::string& xml_text) {
  obs::ScopedTimer span("parse");
  auto model = parser::LoadModel(xml_text);
  if (!model.ok()) return model.status();
  span.Stop();
  return FromModel(model.take());
}

Result<std::unique_ptr<CompiledModel>> CompiledModel::FromFile(const std::string& path) {
  obs::ScopedTimer span("parse");
  auto model = parser::LoadModelFile(path);
  if (!model.ok()) return model.status();
  span.Stop();
  return FromModel(model.take());
}

const vm::Program& CompiledModel::fuzz_only() {
  if (!fuzz_only_) {
    obs::ScopedTimer span("codegen");
    codegen::LoweringOptions opts;
    opts.model_instrumentation = false;
    opts.edge_instrumentation = true;
    auto program = codegen::LowerToBytecode(scheduled_, opts);
    // Lowering cannot fail in ways analysis did not already reject; assert
    // via value() in debug and fall back to the instrumented program.
    if (program.ok()) {
      fuzz_only_ = std::make_unique<vm::Program>(program.take());
    } else {
      fuzz_only_ = std::make_unique<vm::Program>(instrumented_);
    }
  }
  return *fuzz_only_;
}

const analysis::ModelAnalysis& CompiledModel::analysis() {
  if (!analysis_) {
    obs::ScopedTimer span("static_analysis");
    analysis_ = std::make_unique<analysis::ModelAnalysis>(
        analysis::AnalyzeScheduledModel(scheduled_));
  }
  return *analysis_;
}

const analysis::SliceReport& CompiledModel::slices() {
  if (!slices_) {
    obs::ScopedTimer span("slice_analysis");
    slices_ = std::make_unique<analysis::SliceReport>(analysis::ComputeSlices(scheduled_));
  }
  return *slices_;
}

fuzz::FocusPlan CompiledModel::BuildFocusPlan() {
  const analysis::SliceReport& sr = slices();
  fuzz::FocusPlan plan;
  plan.slot_fields.resize(sr.slices.size());
  plan.slot_component.assign(sr.slices.size(), -1);
  plan.num_components = sr.num_components;
  for (std::size_t i = 0; i < sr.slices.size(); ++i) {
    const analysis::ObjectiveSlice& sl = sr.slices[i];
    plan.slot_component[i] = sl.component;
    plan.slot_fields[i].reserve(sl.fields.size());
    for (int f : sl.fields) plan.slot_fields[i].push_back(static_cast<std::size_t>(f));
  }
  return plan;
}

Result<std::string> CompiledModel::EmitFuzzingCode() const {
  return codegen::EmitC(instrumented_, model_->name());
}

Status CompiledModel::ValidateResumeProfile(const fuzz::CampaignCheckpoint& ckpt) {
  const std::size_t vm_len = instrumented_.code.size();
  const std::size_t fuzz_only_len = fuzz_only().code.size();
  const auto check = [](std::size_t worker, const char* plane,
                        const std::vector<std::uint64_t>& counters, std::size_t len) {
    if (counters.empty() || counters.size() == len) return Status::Ok();
    return Status::Error("checkpoint worker " + std::to_string(worker) + " " + plane +
                         " profile plane has " + std::to_string(counters.size()) +
                         " counter(s), but the program this campaign runs has " +
                         std::to_string(len) +
                         " instruction(s) (written by a build that lowers the model "
                         "differently, or damaged)");
  };
  for (std::size_t i = 0; i < ckpt.workers.size(); ++i) {
    const fuzz::FuzzerState& s = ckpt.workers[i];
    for (Status st : {check(i, "VM count", s.exec_profile.insn_counts, vm_len),
                      check(i, "VM sample", s.exec_profile.insn_samples, vm_len),
                      check(i, "fuzz-only count", s.fuzz_exec_profile.insn_counts, fuzz_only_len),
                      check(i, "fuzz-only sample", s.fuzz_exec_profile.insn_samples,
                            fuzz_only_len)}) {
      if (!st.ok()) return st;
    }
  }
  return Status::Ok();
}

fuzz::CampaignResult CompiledModel::Fuzz(const fuzz::FuzzerOptions& options,
                                         const fuzz::FuzzBudget& budget) {
  return FuzzParallel(options, budget, fuzz::ParallelOptions{}).merged;
}

fuzz::ParallelCampaignResult CompiledModel::FuzzParallel(const fuzz::FuzzerOptions& options,
                                                         const fuzz::FuzzBudget& budget,
                                                         const fuzz::ParallelOptions& parallel) {
  const vm::Program* fo = options.model_oriented ? nullptr : &fuzz_only();
  obs::ScopedTimer vm_span("vm_load");
  fuzz::ParallelFuzzer fuzzer(instrumented_, spec(), options, parallel, fo);
  vm_span.Stop();
  obs::ScopedTimer span("fuzz");
  return fuzzer.Run(budget);
}

fuzz::SupervisedCampaignResult CompiledModel::FuzzSupervised(
    const fuzz::FuzzerOptions& options, const fuzz::FuzzBudget& budget,
    const fuzz::SupervisorOptions& supervise) {
  const vm::Program* fo = options.model_oriented ? nullptr : &fuzz_only();
  obs::ScopedTimer vm_span("vm_load");
  fuzz::Supervisor supervisor(instrumented_, spec(), options, supervise, fo);
  vm_span.Stop();
  obs::ScopedTimer span("fuzz");
  return supervisor.Run(budget);
}

}  // namespace cftcg
