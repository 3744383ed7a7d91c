#include "core/threshold/threshold_tester.hpp"

#include <gtest/gtest.h>

#include "core/threshold/budget.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "graph/subgraph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::core::threshold {
namespace {

using graph::Graph;
using graph::IdAssignment;

const Detector& kThreshold = DetectorRegistry::builtin().require("threshold");

/// The named threshold counter of \p v.
std::uint64_t counter(const Verdict& v, std::string_view name) {
  return counter_value(kThreshold, v.counters, name);
}

DetectorOptions unlimited(unsigned k, std::uint64_t seed) {
  DetectorOptions opt;
  opt.k = k;
  opt.seed = seed;
  opt.budget = BudgetSchedule::none();
  opt.max_tracked = 0;
  return opt;
}

TEST(BudgetSchedule, ParseNameRoundTrip) {
  EXPECT_TRUE(BudgetSchedule::parse("none").unlimited());
  EXPECT_TRUE(BudgetSchedule::parse("0").unlimited());
  EXPECT_EQ(BudgetSchedule::parse("none").name(), "none");
  EXPECT_EQ(BudgetSchedule::parse("16").name(), "16");
  EXPECT_EQ(BudgetSchedule::parse("4,8,16").name(), "4,8,16");
  EXPECT_EQ(BudgetSchedule::parse("4,8,16"), BudgetSchedule::parse("4,8,16"));
}

TEST(BudgetSchedule, AtRepeatsLastEntryAndZeroMeansUnlimited) {
  const BudgetSchedule sched = BudgetSchedule::parse("4,8,16");
  EXPECT_EQ(sched.at(0), 4u);
  EXPECT_EQ(sched.at(1), 8u);
  EXPECT_EQ(sched.at(2), 16u);
  EXPECT_EQ(sched.at(99), 16u);  // last value repeats
  EXPECT_EQ(BudgetSchedule::none().at(7), 0u);
  EXPECT_EQ(BudgetSchedule::constant(0).at(0), 0u);  // constant(0) = unlimited
}

TEST(BudgetSchedule, RejectsMalformedTokens) {
  EXPECT_THROW((void)BudgetSchedule::parse(""), util::CheckError);
  EXPECT_THROW((void)BudgetSchedule::parse("abc"), util::CheckError);
  EXPECT_THROW((void)BudgetSchedule::parse("4,x"), util::CheckError);
  EXPECT_THROW((void)BudgetSchedule::parse("4,0"), util::CheckError);  // zero inside a list
  EXPECT_THROW((void)BudgetSchedule::parse("9999999"), util::CheckError);  // > 2^20
}

TEST(ThresholdTester, DetectsPlantedCyclesInOneSweep) {
  util::Rng rng(41);
  graph::PlantedOptions popt;
  popt.k = 5;
  popt.num_cycles = 4;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());

  const Verdict tv = kThreshold.run_fresh(inst.graph, ids, unlimited(5, 7));
  EXPECT_FALSE(tv.accepted);
  EXPECT_GE(tv.rejecting_nodes, 1u);
  ASSERT_EQ(tv.witness.size(), 5u);  // validated k-cycle
  EXPECT_EQ(tv.repetitions, 1u);     // a single sweep suffices
  EXPECT_FALSE(tv.truncated);
  EXPECT_GT(counter(tv, "seeded_total"), 0u);
  // One sweep is ⌊k/2⌋+2 rounds plus the final delivery — two orders of
  // magnitude below the amplified tester.
  EXPECT_LE(tv.stats.rounds_executed, 5u);
}

TEST(ThresholdTester, SoundOnCkFreeFamilies) {
  util::Rng rng(11);
  const Graph forest = graph::random_tree(40, rng);
  const IdAssignment ids = IdAssignment::identity(forest.num_vertices());
  for (const unsigned k : {4u, 5u, 6u}) {
    const Verdict tv = kThreshold.run_fresh(forest, ids, unlimited(k, 3));
    EXPECT_TRUE(tv.accepted) << "k=" << k;
    EXPECT_TRUE(tv.witness.empty());
  }
}

TEST(ThresholdTester, UnlimitedBudgetsMatchExactOracle) {
  // With no budgets the sweep is an exhaustive parallel edge scan: every
  // edge runs Lemma 2's deterministic checker, so the verdict must equal
  // the DFS oracle on every instance.
  util::Rng rng(0x7123);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(13, 20, rng);
    const IdAssignment ids = IdAssignment::identity(g.num_vertices());
    for (const unsigned k : {4u, 5u, 6u}) {
      const bool exact = graph::has_cycle(g, k);
      const Verdict tv = kThreshold.run_fresh(g, ids, unlimited(k, 100 + trial));
      EXPECT_EQ(!tv.accepted, exact) << "trial=" << trial << " k=" << k;
    }
  }
}

TEST(ThresholdTester, TightThresholdsStaySoundAndCountTheSqueeze) {
  util::Rng rng(5);
  const Graph g = graph::erdos_renyi_gnm(24, 48, rng);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  DetectorOptions opt;
  opt.k = 5;
  opt.seed = 9;
  opt.budget = BudgetSchedule::constant(1);
  opt.max_tracked = 1;
  const Verdict tv = kThreshold.run_fresh(g, ids, opt);
  // The squeeze must be visible in the counters...
  EXPECT_GT(counter(tv, "seed_capped_total") + counter(tv, "evictions_total") +
                counter(tv, "budget_truncated_total") + counter(tv, "discarded_seqs_total"),
            0u);
  EXPECT_EQ(counter(tv, "peak_tracked"), 1u);
  // ...and a rejection under any squeeze still carries a validated witness.
  if (!tv.accepted) {
    EXPECT_EQ(tv.witness.size(), 5u);
    EXPECT_TRUE(graph::has_cycle(g, 5));
  }
}

TEST(ThresholdTester, BudgetOnlyLosesDetectionsNeverFabricates) {
  // C5-free bipartite-ish instance under brutal truncation: soundness is a
  // structural property (witness validation), not a budget property.
  const Graph g = graph::grid(5, 5);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  DetectorOptions opt;
  opt.k = 5;  // odd cycles cannot exist in a bipartite grid
  opt.budget = BudgetSchedule::parse("1,2");
  opt.max_tracked = 2;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    opt.seed = seed;
    const Verdict tv = kThreshold.run_fresh(g, ids, opt);
    EXPECT_TRUE(tv.accepted) << "seed=" << seed;
  }
}

TEST(ThresholdTester, TotalMessageLossSuppressesEverything) {
  util::Rng rng(2);
  graph::PlantedOptions popt;
  popt.k = 4;
  popt.num_cycles = 3;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());
  DetectorOptions opt = unlimited(4, 13);
  opt.drop = [](std::uint64_t, graph::Vertex, graph::Vertex) { return true; };
  const Verdict tv = kThreshold.run_fresh(inst.graph, ids, opt);
  EXPECT_TRUE(tv.accepted);  // loss can only lose detections
  EXPECT_GT(tv.stats.dropped_messages, 0u);
}

TEST(ThresholdTester, MultiSweepReshufflesPriorities) {
  util::Rng rng(19);
  const Graph g = graph::erdos_renyi_gnm(16, 28, rng);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  DetectorOptions opt;
  opt.k = 4;
  opt.seed = 55;
  opt.repetitions = 3;  // sweeps
  opt.budget = BudgetSchedule::constant(2);
  opt.max_tracked = 2;
  const Verdict tv = kThreshold.run_fresh(g, ids, opt);
  EXPECT_EQ(tv.repetitions, 3u);
  EXPECT_FALSE(tv.truncated);
  // Three sweeps seed three waves of executions.
  EXPECT_GE(counter(tv, "seeded_total"), 3u * g.num_edges());
}

TEST(ThresholdTester, RejectsBadParameters) {
  const Graph g = graph::cycle(6);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  DetectorOptions opt;
  opt.k = 2;
  EXPECT_THROW((void)kThreshold.run_fresh(g, ids, opt), util::CheckError);
}

}  // namespace
}  // namespace decycle::core::threshold
