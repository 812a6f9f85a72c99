#include "sldv/goal_solver.hpp"

#include <algorithm>
#include <cmath>

#include "obs/clock.hpp"

namespace cftcg::sldv {

GoalSolver::GoalSolver(const vm::Program& program, const coverage::CoverageSpec& spec,
                       SolverOptions options)
    : program_(&program),
      spec_(&spec),
      options_(options),
      machine_(program),
      sink_(spec),
      rng_(options.seed) {
  margins_.Reset(spec);
  machine_.set_margins(&margins_);
  for (const auto t : program.input_types) {
    field_ranges_.push_back(Interval::OfType(t));
    field_is_float_.push_back(ir::DTypeIsFloat(t));
  }
  // Constraint-system size proxy: every decision contributes its outcomes
  // and conditions at every unrolled step.
  std::uint64_t per_step = 0;
  for (const auto& d : spec.decisions()) {
    per_step += static_cast<std::uint64_t>(d.num_outcomes) + d.conditions.size();
  }
  stats_.constraint_nodes = per_step * static_cast<std::uint64_t>(options.horizon);
}

std::vector<double> GoalSolver::RandomCandidate() {
  const std::size_t fields = field_ranges_.size();
  std::vector<double> c(static_cast<std::size_t>(options_.horizon) * fields);
  for (std::size_t k = 0; k < c.size(); ++k) {
    const Interval& r = field_ranges_[k % fields];
    if (field_is_float_[k % fields]) {
      c[k] = rng_.NextDouble(r.lo(), r.hi());
    } else {
      c[k] = static_cast<double>(
          rng_.NextInRange(static_cast<std::int64_t>(r.lo()), static_cast<std::int64_t>(r.hi())));
    }
  }
  return c;
}

std::vector<std::uint8_t> GoalSolver::Serialize(const std::vector<double>& candidate) const {
  const std::size_t fields = field_ranges_.size();
  std::vector<std::uint8_t> data;
  data.resize(static_cast<std::size_t>(options_.horizon) * program_->TupleSize());
  std::size_t offset = 0;
  for (std::size_t k = 0; k < candidate.size(); ++k) {
    const ir::DType t = program_->input_types[k % fields];
    ir::Value v = ir::DTypeIsFloat(t)
                      ? ir::Value::Real(t, candidate[k])
                      : ir::Value::Int(t, static_cast<std::int64_t>(candidate[k]));
    v.ToBytes(data.data() + offset);
    offset += ir::DTypeSize(t);
  }
  return data;
}

double GoalSolver::Evaluate(const std::vector<double>& candidate, coverage::DecisionId d,
                            int outcome, std::vector<std::size_t>* newly_covered) {
  const std::size_t fields = field_ranges_.size();
  machine_.Reset();
  margins_.ResetRun();
  ++stats_.runs;
  std::vector<ir::Value> step_values(fields);
  const int goal_slot = spec_->OutcomeSlot(d, outcome);
  bool reached = false;
  for (int step = 0; step < options_.horizon; ++step) {
    for (std::size_t f = 0; f < fields; ++f) {
      const ir::DType t = program_->input_types[f];
      const double raw = candidate[static_cast<std::size_t>(step) * fields + f];
      step_values[f] = ir::DTypeIsFloat(t) ? ir::Value::Real(t, raw)
                                           : ir::Value::Int(t, static_cast<std::int64_t>(raw));
    }
    sink_.BeginIteration();
    machine_.SetInputs(step_values);
    machine_.Step(&sink_);
    if (sink_.curr().Test(static_cast<std::size_t>(goal_slot))) reached = true;
    const std::size_t fresh = sink_.AccumulateIteration();
    if (fresh > 0 && newly_covered != nullptr) newly_covered->push_back(fresh);
  }
  if (reached) return 0.0;
  const double dist = margins_.Distance(d, outcome);
  // Flat distance for objectives without numeric margins: search degrades
  // to random restarts (realistic for boolean/structural objectives).
  return (dist >= coverage::MarginRecorder::kUnreached) ? 1e9 : dist;
}

void GoalSolver::SeedCoverage(const DynamicBitset& covered) {
  sink_.mutable_total().MergeAndCountNew(covered);
}

void GoalSolver::SeedInputRanges(const std::vector<Interval>& ranges) {
  for (std::size_t k = 0; k < field_ranges_.size() && k < ranges.size(); ++k) {
    if (ranges[k].empty()) continue;
    const Interval dtype_range = Interval::OfType(program_->input_types[k]);
    const Interval narrowed = ranges[k].Intersect(dtype_range);
    if (!narrowed.empty()) field_ranges_[k] = narrowed;
  }
}

fuzz::CampaignResult GoalSolver::Run(const fuzz::FuzzBudget& budget) {
  fuzz::CampaignResult result;
  const obs::Stopwatch watch;  // obs::Clock: shared monotonic time source

  // Objectives: every decision outcome.
  struct Goal {
    coverage::DecisionId d;
    int outcome;
  };
  std::vector<Goal> goals;
  for (const auto& d : spec_->decisions()) {
    for (int k = 0; k < d.num_outcomes; ++k) goals.push_back(Goal{d.id, k});
  }
  stats_.goals_total = goals.size();

  auto out_of_budget = [&] {
    return watch.Elapsed() >= budget.wall_seconds || stats_.runs >= budget.max_executions;
  };

  auto record_if_new = [&](const std::vector<double>& candidate, std::size_t fresh) {
    if (fresh == 0) return;
    int covered = 0;
    for (int slot = 0; slot < spec_->num_outcome_slots(); ++slot) {
      if (sink_.total().Test(static_cast<std::size_t>(slot))) ++covered;
    }
    result.test_cases.push_back(
        fuzz::TestCase{Serialize(candidate), watch.Elapsed(), fresh, covered});
  };

  bool progress = true;
  while (!out_of_budget() && progress) {
    progress = false;
    for (const auto& goal : goals) {
      if (out_of_budget()) break;
      const int slot = spec_->OutcomeSlot(goal.d, goal.outcome);
      if (sink_.total().Test(static_cast<std::size_t>(slot))) continue;  // already covered

      for (int restart = 0; restart < options_.restarts_per_goal && !out_of_budget(); ++restart) {
        std::vector<double> candidate = RandomCandidate();
        std::vector<std::size_t> fresh_list;
        double best = Evaluate(candidate, goal.d, goal.outcome, &fresh_list);
        for (auto fresh : fresh_list) record_if_new(candidate, fresh);
        if (best == 0.0) {
          progress = true;
          break;
        }
        // Alternating variable method with exponential pattern moves.
        int moves = 0;
        bool improved_any = true;
        while (improved_any && moves < options_.max_moves && !out_of_budget()) {
          improved_any = false;
          for (std::size_t var = 0; var < candidate.size() && moves < options_.max_moves; ++var) {
            const Interval& range = field_ranges_[var % field_ranges_.size()];
            for (const double direction : {1.0, -1.0}) {
              double delta = field_is_float_[var % field_ranges_.size()]
                                 ? std::max(1e-3, std::fabs(candidate[var]) * 1e-3)
                                 : 1.0;
              for (;;) {
                if (out_of_budget() || moves >= options_.max_moves) break;
                std::vector<double> next = candidate;
                next[var] = std::clamp(next[var] + direction * delta, range.lo(), range.hi());
                if (next[var] == candidate[var]) break;
                fresh_list.clear();
                const double score = Evaluate(next, goal.d, goal.outcome, &fresh_list);
                ++moves;
                for (auto fresh : fresh_list) record_if_new(next, fresh);
                if (score < best) {
                  best = score;
                  candidate = std::move(next);
                  improved_any = true;
                  delta *= 2;  // pattern move: accelerate while improving
                  if (best == 0.0) break;
                } else {
                  break;
                }
              }
              if (best == 0.0) break;
            }
            if (best == 0.0) break;
          }
          if (best == 0.0) break;
        }
        if (best == 0.0) {
          progress = true;
          break;
        }
      }
    }
    // One full sweep with zero newly covered goals: the solver has done what
    // its horizon permits; keep sweeping only while budget and progress last.
  }

  stats_.goals_covered = 0;
  for (const auto& goal : goals) {
    if (sink_.total().Test(static_cast<std::size_t>(spec_->OutcomeSlot(goal.d, goal.outcome)))) {
      ++stats_.goals_covered;
    }
  }
  result.executions = stats_.runs;
  result.model_iterations = stats_.runs * static_cast<std::uint64_t>(options_.horizon);
  result.elapsed_s = watch.Elapsed();
  result.report = coverage::ComputeReport(sink_);
  return result;
}

}  // namespace cftcg::sldv
