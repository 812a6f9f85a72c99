#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "coverage/provenance.hpp"
#include "coverage/report.hpp"
#include "coverage/sink.hpp"
#include "coverage/spec.hpp"
#include "obs/json.hpp"
#include "support/rng.hpp"

namespace cftcg::coverage {
namespace {

TEST(SpecTest, SlotLayout) {
  CoverageSpec spec;
  const auto d0 = spec.AddDecision("sw", 2);
  const auto d1 = spec.AddDecision("sat", 3);
  const auto c0 = spec.AddCondition("c0", d0);
  const auto c1 = spec.AddCondition("c1", d0);
  EXPECT_EQ(spec.num_outcome_slots(), 5);
  EXPECT_EQ(spec.OutcomeSlot(d0, 0), 0);
  EXPECT_EQ(spec.OutcomeSlot(d0, 1), 1);
  EXPECT_EQ(spec.OutcomeSlot(d1, 2), 4);
  EXPECT_EQ(spec.FuzzBranchCount(), 5 + 4);
  EXPECT_EQ(spec.ConditionTrueSlot(c0), 5);
  EXPECT_EQ(spec.ConditionFalseSlot(c0), 6);
  EXPECT_EQ(spec.ConditionTrueSlot(c1), 7);
  EXPECT_EQ(spec.decision(d0).conditions.size(), 2U);
  EXPECT_EQ(spec.condition(c1).index_in_decision, 1);
}

TEST(SinkTest, IterationLifecycle) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("d", 2);
  CoverageSink sink(spec);
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 0));
  EXPECT_EQ(sink.AccumulateIteration(), 1U);
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 0));
  EXPECT_EQ(sink.AccumulateIteration(), 0U);  // nothing new
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 1));
  EXPECT_EQ(sink.AccumulateIteration(), 1U);
  EXPECT_EQ(sink.total().Count(), 2U);
  sink.ResetCampaign();
  EXPECT_EQ(sink.total().Count(), 0U);
}

// RecordEval skips a repeat of a decision's previous evaluation. The
// filtered sets must equal an unfiltered reference (insert while below the
// cap) over random streams heavy in repeats, past the cap, and across
// MergeFrom, ResetCampaign and RestoreCampaign.
TEST(SinkTest, RepeatFilterKeepsEvalSetsExact) {
  CoverageSpec spec;
  const DecisionId small = spec.AddDecision("small", 2);
  const DecisionId wide = spec.AddDecision("wide", 2);
  using Sets = std::vector<std::unordered_set<std::uint64_t>>;
  const auto ref_insert = [](Sets& ref, DecisionId d, std::uint64_t e) {
    auto& set = ref[static_cast<std::size_t>(d)];
    if (set.size() < CoverageSink::kMaxEvalsPerDecision) set.insert(e);
  };
  Rng rng(11);
  // Runs of 1..4 identical evaluations, alternating between a decision with
  // 16 distinct evaluations and one with 65536 (it reaches the cap).
  const auto feed = [&](CoverageSink& sink, Sets& ref, int runs) {
    for (int k = 0; k < runs; ++k) {
      const DecisionId d = rng.NextBelow(2) == 0 ? small : wide;
      const auto values = static_cast<std::uint32_t>(rng.NextBelow(d == small ? 2 : 8192));
      const auto mask = static_cast<std::uint32_t>(rng.NextBelow(4));
      const auto outcome = static_cast<int>(rng.NextBelow(2));
      for (std::uint64_t j = 0, n = 1 + rng.NextBelow(4); j < n; ++j) {
        sink.RecordEval(d, values, mask, outcome);
        ref_insert(ref, d, PackEval(values, mask, outcome));
      }
    }
  };
  CoverageSink sink(spec);
  Sets ref(2);
  feed(sink, ref, 6000);
  EXPECT_EQ(sink.evals(), ref);
  EXPECT_EQ(sink.evals()[static_cast<std::size_t>(wide)].size(),
            CoverageSink::kMaxEvalsPerDecision);

  // MergeFrom only grows the sets; the filter's memory stays valid.
  CoverageSink other(spec);
  Sets other_ref(2);
  feed(other, other_ref, 500);
  ASSERT_EQ(other.evals(), other_ref);
  sink.MergeFrom(other);
  for (std::size_t d = 0; d < 2; ++d) {
    for (const std::uint64_t e : other.evals()[d]) ref_insert(ref, static_cast<DecisionId>(d), e);
  }
  feed(sink, ref, 2000);
  EXPECT_EQ(sink.evals(), ref);

  // After a reset, the evaluation recorded last before it counts again.
  sink.RecordEval(small, 3, 1, 1);
  sink.ResetCampaign();
  ref = Sets(2);
  sink.RecordEval(small, 3, 1, 1);
  ref_insert(ref, small, PackEval(3, 1, 1));
  feed(sink, ref, 3000);
  EXPECT_EQ(sink.evals(), ref);

  // Likewise after a restore that does not contain it.
  sink.RecordEval(small, 2, 3, 0);
  const std::vector<std::vector<std::uint64_t>> saved = {{PackEval(1, 1, 1)}, {}};
  ASSERT_TRUE(sink.RestoreCampaign(sink.total().words(), saved));
  ref = Sets(2);
  ref_insert(ref, small, PackEval(1, 1, 1));
  sink.RecordEval(small, 2, 3, 0);
  ref_insert(ref, small, PackEval(2, 3, 0));
  feed(sink, ref, 3000);
  EXPECT_EQ(sink.evals(), ref);
}

TEST(McdcPackTest, RoundTrip) {
  const std::uint64_t e = PackEval(0b101, 0b111, 1);
  EXPECT_EQ(EvalValues(e), 0b101U);
  EXPECT_EQ(EvalMask(e), 0b111U);
  EXPECT_EQ(EvalOutcome(e), 1);
}

TEST(McdcTest, AndGateIndependencePairs) {
  // a && b: evals (1,1)->1, (0,1)->0, (1,0)->0 show independence of both.
  std::unordered_set<std::uint64_t> evals;
  evals.insert(PackEval(0b11, 0b11, 1));
  evals.insert(PackEval(0b10, 0b11, 0));  // a=0,b=1
  evals.insert(PackEval(0b01, 0b11, 0));  // a=1,b=0
  EXPECT_TRUE(HasIndependencePair(evals, 0));
  EXPECT_TRUE(HasIndependencePair(evals, 1));
}

TEST(McdcTest, NoPairWhenOnlyOneOutcome) {
  std::unordered_set<std::uint64_t> evals;
  evals.insert(PackEval(0b11, 0b11, 1));
  evals.insert(PackEval(0b01, 0b11, 1));
  EXPECT_FALSE(HasIndependencePair(evals, 0));
}

TEST(McdcTest, MaskedShortCircuitCounts) {
  // a || b with short circuit: (a=1, b unevaluated) -> 1 and
  // (a=0, b=0) -> 0 demonstrates independence of a (b masked).
  std::unordered_set<std::uint64_t> evals;
  evals.insert(PackEval(0b01, 0b01, 1));  // only a evaluated
  evals.insert(PackEval(0b00, 0b11, 0));
  EXPECT_TRUE(HasIndependencePair(evals, 0));
  EXPECT_FALSE(HasIndependencePair(evals, 1));  // b never flipped the outcome
}

TEST(McdcTest, OtherConditionChangeInvalidatesPair) {
  // Outcome flip caused by BOTH conditions changing: no independence.
  std::unordered_set<std::uint64_t> evals;
  evals.insert(PackEval(0b11, 0b11, 1));
  evals.insert(PackEval(0b00, 0b11, 0));
  EXPECT_FALSE(HasIndependencePair(evals, 0));
  EXPECT_FALSE(HasIndependencePair(evals, 1));
}

TEST(ReportTest, ComputesPercentages) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("d", 2);
  const auto c = spec.AddCondition("c", d);
  CoverageSink sink(spec);
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 0));
  sink.Hit(spec.ConditionTrueSlot(c));
  sink.RecordEval(d, 0b1, 0b1, 1);
  sink.AccumulateIteration();

  auto report = ComputeReport(sink);
  EXPECT_EQ(report.outcome_total, 2);
  EXPECT_EQ(report.outcome_covered, 1);
  EXPECT_DOUBLE_EQ(report.DecisionPct(), 50.0);
  EXPECT_EQ(report.condition_polarity_total, 2);
  EXPECT_EQ(report.condition_polarity_covered, 1);
  EXPECT_EQ(report.mcdc_total, 1);
  EXPECT_EQ(report.mcdc_covered, 0);

  // Cover the other polarity + outcome with a flipping eval.
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 1));
  sink.Hit(spec.ConditionFalseSlot(c));
  sink.RecordEval(d, 0b0, 0b1, 0);
  sink.AccumulateIteration();
  report = ComputeReport(sink);
  EXPECT_DOUBLE_EQ(report.DecisionPct(), 100.0);
  EXPECT_DOUBLE_EQ(report.ConditionPct(), 100.0);
  EXPECT_DOUBLE_EQ(report.McdcPct(), 100.0);
}

TEST(ReportTest, EmptySpecIsFullyCovered) {
  CoverageSpec spec;
  CoverageSink sink(spec);
  const auto report = ComputeReport(sink);
  EXPECT_DOUBLE_EQ(report.DecisionPct(), 100.0);
  EXPECT_DOUBLE_EQ(report.McdcPct(), 100.0);
}

TEST(ReportTest, UncoveredOutcomesNamed) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("mysat", 3);
  CoverageSink sink(spec);
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 1));
  sink.AccumulateIteration();
  const auto uncovered = UncoveredOutcomes(spec, sink.total());
  ASSERT_EQ(uncovered.size(), 2U);
  EXPECT_EQ(uncovered[0], "mysat[0]");
  EXPECT_EQ(uncovered[1], "mysat[2]");
}

TEST(MarginTest, RecordsDistances) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("d", 2);
  MarginRecorder rec;
  rec.Reset(spec);
  EXPECT_EQ(rec.Distance(d, 0), MarginRecorder::kUnreached);
  rec.Record(d, 0, 1, 5.0);  // margin 5 -> outcome 0 reached, outcome 1 at distance 6
  EXPECT_EQ(rec.Distance(d, 0), 0.0);
  EXPECT_EQ(rec.Distance(d, 1), 6.0);
  rec.Record(d, 0, 1, -2.0);  // now outcome 1 reached; 0 at distance 2
  EXPECT_EQ(rec.Distance(d, 1), 0.0);
  EXPECT_EQ(rec.Distance(d, 0), 0.0);  // still 0 from earlier in the run
  rec.ResetRun();
  EXPECT_EQ(rec.Distance(d, 0), MarginRecorder::kUnreached);
}

TEST(MarginTest, DistanceShrinksMonotonically) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("d", 2);
  MarginRecorder rec;
  rec.Reset(spec);
  rec.Record(d, 0, 1, 10.0);
  EXPECT_EQ(rec.Distance(d, 1), 11.0);
  rec.Record(d, 0, 1, 3.0);  // closer observation shrinks the best distance
  EXPECT_EQ(rec.Distance(d, 1), 4.0);
  rec.Record(d, 0, 1, 8.0);  // a worse one must not grow it back
  EXPECT_EQ(rec.Distance(d, 1), 4.0);
}

TEST(ProvenanceTest, FirstHitAttributionSticks) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("sw", 2);
  const auto c = spec.AddCondition("sw.c", d);
  ProvenanceMap prov(spec);
  // 2 outcomes + 2 polarities + 1 MCDC condition.
  EXPECT_EQ(prov.num_objectives(), 5U);
  EXPECT_EQ(prov.num_covered(), 0U);

  DynamicBitset total(static_cast<std::size_t>(spec.FuzzBranchCount()));
  total.Set(static_cast<std::size_t>(spec.OutcomeSlot(d, 0)));
  total.Set(static_cast<std::size_t>(spec.ConditionTrueSlot(c)));
  auto fresh = prov.AttributeSlots(total, 7, 0.5, 3, "flip");
  EXPECT_EQ(fresh.size(), 2U);
  EXPECT_EQ(prov.num_covered(), 2U);

  // A later pass over a grown bitset only attributes the new slot; the
  // earlier first hits keep their original discoverer.
  total.Set(static_cast<std::size_t>(spec.OutcomeSlot(d, 1)));
  fresh = prov.AttributeSlots(total, 9, 1.0, 4, "rand");
  ASSERT_EQ(fresh.size(), 1U);
  const ObjectiveFirstHit& h = prov.hits()[fresh[0]];
  EXPECT_EQ(h.kind, ObjectiveKind::kDecisionOutcome);
  EXPECT_EQ(h.name, "sw");
  EXPECT_EQ(h.outcome, 1);
  EXPECT_EQ(h.iteration, 9U);
  EXPECT_EQ(h.entry_id, 4);
  EXPECT_EQ(h.chain, "rand");
  EXPECT_EQ(prov.hits()[0].iteration, 7U);
  EXPECT_EQ(prov.hits()[0].entry_id, 3);
  EXPECT_EQ(prov.hits()[0].chain, "flip");
}

TEST(ProvenanceTest, McdcAttributedOncePerCondition) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("gate", 2);
  const auto a = spec.AddCondition("a", d);
  const auto b = spec.AddCondition("b", d);
  ProvenanceMap prov(spec);

  std::unordered_set<std::uint64_t> evals;
  evals.insert(PackEval(0b11, 0b11, 1));
  evals.insert(PackEval(0b10, 0b11, 0));  // only `a` flipped -> pair for a
  auto fresh = prov.AttributeMcdc(d, evals, 5, 0.1, 2, "flip");
  ASSERT_EQ(fresh.size(), 1U);
  EXPECT_EQ(prov.hits()[fresh[0]].kind, ObjectiveKind::kMcdcPair);
  EXPECT_EQ(prov.hits()[fresh[0]].condition, a);

  // Same eval set again: nothing new to attribute.
  EXPECT_TRUE(prov.AttributeMcdc(d, evals, 6, 0.2, 3, "rand").empty());

  evals.insert(PackEval(0b01, 0b11, 0));  // now b has a pair too
  fresh = prov.AttributeMcdc(d, evals, 8, 0.3, 4, "rand");
  ASSERT_EQ(fresh.size(), 1U);
  EXPECT_EQ(prov.hits()[fresh[0]].condition, b);
  EXPECT_EQ(prov.hits()[fresh[0]].entry_id, 4);
}

TEST(ProvenanceTest, ToJsonParsesBack) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("blk \"q\"/sw", 2);
  ProvenanceMap prov(spec);
  DynamicBitset total(static_cast<std::size_t>(spec.FuzzBranchCount()));
  total.Set(static_cast<std::size_t>(spec.OutcomeSlot(d, 1)));
  prov.AttributeSlots(total, 3, 0.25, 0, "seed");

  const auto parsed = obs::ParseJson(prov.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  const obs::JsonValue& v = parsed.value();
  EXPECT_EQ(v.NumberOr("covered", -1), 1);
  EXPECT_EQ(v.NumberOr("total", -1), 2);
  const obs::JsonValue* objectives = v.Find("objectives");
  ASSERT_NE(objectives, nullptr);
  ASSERT_EQ(objectives->items.size(), 1U);
  EXPECT_EQ(objectives->items[0].StringOr("name", ""), "blk \"q\"/sw");
  EXPECT_EQ(objectives->items[0].StringOr("chain", ""), "seed");
  EXPECT_EQ(objectives->items[0].NumberOr("iter", -1), 3);
}

TEST(ProvenanceTest, ResidualNamesMatchSpec) {
  CoverageSpec spec;
  const auto d = spec.AddDecision("blk/sat", 3);
  CoverageSink sink(spec);
  sink.BeginIteration();
  sink.Hit(spec.OutcomeSlot(d, 1));
  sink.AccumulateIteration();

  MarginRecorder rec;
  rec.Reset(spec);
  rec.Record(d, 1, 0, 1.5);  // outcome 1 reached; outcome 0 at distance 1.5+1

  const auto residuals = ResidualDiagnostics(spec, sink.total(), &rec);
  ASSERT_EQ(residuals.size(), 2U);
  EXPECT_EQ(residuals[0].name, "blk/sat[0]");
  EXPECT_EQ(residuals[0].outcome, 0);
  EXPECT_EQ(residuals[0].distance, 2.5);
  EXPECT_EQ(residuals[1].name, "blk/sat[2]");
  EXPECT_EQ(residuals[1].distance, MarginRecorder::kUnreached);
}

TEST(ProvenanceTest, ResidualWithoutMarginsIsUnreached) {
  CoverageSpec spec;
  spec.AddDecision("d", 2);
  CoverageSink sink(spec);
  const auto residuals = ResidualDiagnostics(spec, sink.total(), nullptr);
  ASSERT_EQ(residuals.size(), 2U);
  for (const auto& r : residuals) {
    EXPECT_EQ(r.distance, MarginRecorder::kUnreached);
  }
}

}  // namespace
}  // namespace cftcg::coverage
