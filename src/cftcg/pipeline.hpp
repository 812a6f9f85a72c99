// The CFTCG pipeline — the library's main entry point.
//
// Ties the stages of Figure 2 together:
//   model file --parse--> Model --analyze+schedule--> ScheduledModel
//     --lower--> instrumented program (+ fuzz-only program, + C text)
//     --model-oriented fuzzing loop--> test cases + coverage report
//
// A CompiledModel owns everything whose lifetime the later stages need
// (the Model, the ScheduledModel with compiled mex programs, and the
// lowered programs), so callers hold one object.
#pragma once

#include <memory>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/slice.hpp"
#include "codegen/cemit.hpp"
#include "codegen/lower.hpp"
#include "fuzz/checkpoint.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/parallel.hpp"
#include "fuzz/supervisor.hpp"
#include "ir/model.hpp"
#include "sched/schedule.hpp"
#include "support/status.hpp"
#include "vm/program.hpp"

namespace cftcg {

/// A fully processed model: analyzed, scheduled, instrumented and lowered.
class CompiledModel {
 public:
  static Result<std::unique_ptr<CompiledModel>> FromModel(std::unique_ptr<ir::Model> model);
  static Result<std::unique_ptr<CompiledModel>> FromXml(const std::string& xml_text);
  static Result<std::unique_ptr<CompiledModel>> FromFile(const std::string& path);

  [[nodiscard]] const ir::Model& model() const { return *model_; }
  [[nodiscard]] const sched::ScheduledModel& scheduled() const { return scheduled_; }
  [[nodiscard]] const coverage::CoverageSpec& spec() const { return scheduled_.spec; }

  /// Model-level instrumented program (the CFTCG fuzzing target).
  [[nodiscard]] const vm::Program& instrumented() const { return instrumented_; }
  /// Edge-instrumented, model-uninstrumented program ("Fuzz Only" target);
  /// built lazily on first use.
  const vm::Program& fuzz_only();

  /// Static model analysis (interval propagation, lint, justified
  /// objectives); computed lazily on first use and cached.
  const analysis::ModelAnalysis& analysis();

  /// Per-objective dependence slices (analysis/slice.hpp); computed lazily
  /// on first use and cached.
  const analysis::SliceReport& slices();

  /// Projects slices() into the plain-data focus plan `fuzz --focus`
  /// consumes (FuzzerOptions::focus points at a caller-owned copy).
  [[nodiscard]] fuzz::FocusPlan BuildFocusPlan();

  /// The generated fuzzing code as C text (Figure 3 + Figure 4 artifacts),
  /// printed from instrumented().
  Result<std::string> EmitFuzzingCode() const;

  /// Runs a CFTCG fuzzing campaign: FuzzParallel over one lane.
  fuzz::CampaignResult Fuzz(const fuzz::FuzzerOptions& options, const fuzz::FuzzBudget& budget);

  /// Resume gate for the self-profile planes: each worker's per-instruction
  /// counters must be empty or exactly one per instruction of the program
  /// every engine runs (instrumented(), and fuzz_only() for its plane). The
  /// spec fingerprint does not cover program length, so this is what
  /// refuses a checkpoint written by a build that lowers the model
  /// differently, instead of resuming with counters attributed to the wrong
  /// instructions.
  Status ValidateResumeProfile(const fuzz::CampaignCheckpoint& ckpt);

  /// Runs a fuzzing campaign over parallel.num_workers threaded lanes (the
  /// round driver of fuzz/parallel.hpp; one lane at num_workers <= 1).
  fuzz::ParallelCampaignResult FuzzParallel(const fuzz::FuzzerOptions& options,
                                            const fuzz::FuzzBudget& budget,
                                            const fuzz::ParallelOptions& parallel);

  /// Runs the crash-isolated supervised engine (fuzz/supervisor.hpp): every
  /// worker in its own process, with fault detection, quarantine and
  /// respawn. One-worker campaigns still fork, so the isolation boundary
  /// always holds; the campaign is the threaded one, lane for lane.
  fuzz::SupervisedCampaignResult FuzzSupervised(const fuzz::FuzzerOptions& options,
                                                const fuzz::FuzzBudget& budget,
                                                const fuzz::SupervisorOptions& supervise);

  /// Table 2 statistics.
  [[nodiscard]] int NumBranches() const { return scheduled_.NumBranchOutcomes(); }
  [[nodiscard]] std::size_t NumBlocks() const { return model_->TotalBlockCount(); }

 private:
  CompiledModel() = default;

  std::unique_ptr<ir::Model> model_;
  sched::ScheduledModel scheduled_;
  vm::Program instrumented_;
  std::unique_ptr<vm::Program> fuzz_only_;
  std::unique_ptr<analysis::ModelAnalysis> analysis_;
  std::unique_ptr<analysis::SliceReport> slices_;
};

}  // namespace cftcg
