#include "core/tester.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::core {
namespace {

using graph::Graph;
using graph::IdAssignment;

const Detector& kTester = DetectorRegistry::builtin().require("tester");

Verdict run_tester(const Graph& g, const IdAssignment& ids, unsigned k, std::size_t reps,
                   std::uint64_t seed = 1) {
  DetectorOptions opt;
  opt.k = k;
  opt.repetitions = reps;
  opt.seed = seed;
  return kTester.run_fresh(g, ids, opt);
}

TEST(Tester, PureCycleAlwaysRejectedInOneRepetition) {
  // Every edge lies on the unique Ck, so whichever edge wins Phase 1, its
  // Phase 2 must fire (Lemma 2 needs no farness).
  for (unsigned k = 3; k <= 9; ++k) {
    const Graph g = graph::cycle(k);
    const IdAssignment ids = IdAssignment::identity(k);
    const auto verdict = run_tester(g, ids, k, 1);
    EXPECT_FALSE(verdict.accepted) << "k=" << k;
    EXPECT_EQ(verdict.witness.size(), k);
    EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
  }
}

struct SoundnessCase {
  unsigned k;
  graph::CkFreeFamily family;
  std::uint64_t seed;
};

class TesterSoundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(TesterSoundness, OneSidedErrorNeverRejectsFreeGraphs) {
  const auto [k, family, seed] = GetParam();
  util::Rng rng(seed);
  const Graph g = graph::ck_free_instance(family, k, 48, rng);
  const IdAssignment ids = IdAssignment::random_quadratic(g.num_vertices(), rng);
  // validate_witnesses is on: any bogus rejection would throw, and the
  // verdict must be accept regardless of repetitions.
  const auto verdict = run_tester(g, ids, k, 12, seed);
  EXPECT_TRUE(verdict.accepted)
      << "family=" << graph::family_name(family) << " k=" << k << " seed=" << seed;
  EXPECT_EQ(verdict.rejecting_nodes, 0u);
}

std::vector<SoundnessCase> soundness_cases() {
  std::vector<SoundnessCase> cases;
  std::uint64_t seed = 100;
  for (const unsigned k : {3u, 4u, 5u, 6u, 7u}) {
    for (const auto family : graph::ck_free_families_for(k)) {
      cases.push_back({k, family, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Families, TesterSoundness, ::testing::ValuesIn(soundness_cases()));

TEST(Tester, DetectsPlantedInstances) {
  util::Rng rng(7);
  for (const unsigned k : {3u, 4u, 5u, 6u, 7u}) {
    graph::PlantedOptions opt;
    opt.k = k;
    opt.num_cycles = 6;
    opt.padding_leaves = 10;
    const auto inst = graph::planted_cycles_instance(opt, rng);
    const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());
    // With certified ε ≈ 6/m, the recommended repetitions give >= 2/3
    // detection; with a fixed seed and this many cycles it is effectively
    // certain. Use the recommended count (repetitions = 0).
    DetectorOptions topt;
    topt.k = k;
    topt.epsilon = inst.certified_epsilon();
    topt.seed = 11 * k;
    const auto verdict = kTester.run_fresh(inst.graph, ids, topt);
    EXPECT_FALSE(verdict.accepted) << "k=" << k;
    EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));
  }
}

TEST(Tester, RepetitionCountDefaultsToFormula) {
  const Graph g = graph::path(4);
  const IdAssignment ids = IdAssignment::identity(4);
  DetectorOptions opt;
  opt.k = 5;
  opt.epsilon = 0.25;
  const auto verdict = kTester.run_fresh(g, ids, opt);
  EXPECT_EQ(verdict.repetitions, recommended_repetitions(0.25));
  EXPECT_TRUE(verdict.accepted);
}

TEST(Tester, RoundsMatchSchedule) {
  const Graph g = graph::cycle(6);
  const IdAssignment ids = IdAssignment::identity(6);
  const std::size_t reps = 5;
  const auto verdict = run_tester(g, ids, 6, reps);
  // Each repetition spans (k/2 + 2) rounds; the simulator may stop early
  // only if nothing is in flight.
  EXPECT_LE(verdict.stats.rounds_executed, reps * (6 / 2 + 2) + 1);
  EXPECT_GE(verdict.stats.rounds_executed, reps * (6 / 2 + 2) - 1);
}

TEST(Tester, MinimumDrawnRankStillQualifiesItsEdge) {
  // Regression for the Phase-1 sentinel: select_and_seed treats
  // port_rank_ == kRankMissing (0) as "rank message lost". The minimum
  // value draw_rank can produce is 1, so a minimum-rank edge must still be
  // selected and seeded. Pin a seed whose very first draw for node 0 on
  // K2 is the minimum of its range, then check the edge participates.
  const Graph g = graph::path(2);  // a single edge; node 0 owns it
  const IdAssignment ids = IdAssignment::identity(2);
  const std::uint64_t range = rank_range_for(2);
  ASSERT_EQ(range, 16u);
  std::uint64_t pinned = ~std::uint64_t{0};
  for (std::uint64_t seed = 0; seed < 100000; ++seed) {
    // Mirrors TesterProgram::start_repetition's stream: (seed, rep 0, id 0).
    util::Rng rng = util::Rng(seed).fork(0).fork(0);
    if (draw_rank(rng, range) == 1) {
      pinned = seed;
      break;
    }
  }
  ASSERT_NE(pinned, ~std::uint64_t{0}) << "no seed drawing the minimum rank in range";

  const auto verdict = run_tester(g, ids, 5, 1, pinned);
  EXPECT_TRUE(verdict.accepted);  // a single edge carries no cycle
  // Participation proof: both endpoints seeded Phase 2 for the rank-1 edge
  // (a sentinel collision would leave the whole repetition silent).
  EXPECT_GE(verdict.max_bundle_sequences, 1u);
  EXPECT_GT(verdict.stats.total_messages, 2u);  // more than just the rank round
}

TEST(Tester, BoundaryRoundBudgetCompletesFinalRepetition) {
  // The internal cap is repetitions·(⌊k/2⌋+2) + 4: at the boundary
  // (repetitions = 1, large k) the final repetition's Phase 2 must have
  // quiesced on its own, never been cut by the cap. A long cycle keeps
  // Phase-2 traffic alive through the very last round (two sequences per
  // node per round) without the path-count blowup of dense graphs.
  const Graph g = graph::cycle(64);
  const IdAssignment ids = IdAssignment::identity(64);
  for (const unsigned k : {31u, 32u}) {  // odd and even ⌊k/2⌋ boundaries
    const auto verdict = run_tester(g, ids, k, 1, 77);
    EXPECT_TRUE(verdict.accepted) << "k=" << k;  // C64 contains no shorter cycle
    EXPECT_FALSE(verdict.truncated) << "k=" << k;
    EXPECT_TRUE(verdict.stats.halted) << "k=" << k;
    // Traffic survives to the final-check round, so the run uses the whole
    // schedule — and still fits under the cap with slack to spare.
    EXPECT_GE(verdict.stats.rounds_executed, static_cast<std::uint64_t>(k / 2 + 1)) << "k=" << k;
    EXPECT_LE(verdict.stats.rounds_executed, static_cast<std::uint64_t>(k / 2 + 2) + 4)
        << "k=" << k;
  }
}

TEST(Tester, DeterministicForFixedSeed) {
  util::Rng rng(9);
  const Graph g = graph::random_connected(40, 70, rng);
  const IdAssignment ids = IdAssignment::identity(40);
  const auto v1 = run_tester(g, ids, 5, 10, 42);
  const auto v2 = run_tester(g, ids, 5, 10, 42);
  EXPECT_EQ(v1.accepted, v2.accepted);
  EXPECT_EQ(v1.rejecting_nodes, v2.rejecting_nodes);
  EXPECT_EQ(v1.stats.total_bits, v2.stats.total_bits);
  EXPECT_EQ(v1.witness, v2.witness);
}

TEST(Tester, ConcurrentExecutionsStaySound) {
  // Dense graph with many overlapping cycles: every node serves some edge,
  // executions preempt each other, and every rejection must still be a real
  // k-cycle (validated internally).
  const Graph g = graph::complete(10);
  const IdAssignment ids = IdAssignment::identity(10);
  const auto verdict = run_tester(g, ids, 5, 4);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
  EXPECT_GT(verdict.rejecting_nodes, 0u);
}

TEST(Tester, PrioritySwitchesHappenOnDenseGraphs) {
  const Graph g = graph::complete(12);
  const IdAssignment ids = IdAssignment::identity(12);
  const auto verdict = run_tester(g, ids, 4, 6);
  // With 66 edges and 12 nodes, most nodes must discard or switch at least
  // once across 6 repetitions.
  EXPECT_GT(counter_value(kTester, verdict.counters, "discarded_total") +
                counter_value(kTester, verdict.counters, "switches_total"),
            0u);
}

TEST(Tester, HandlesDisconnectedGraphsAndIsolatedVertices) {
  graph::GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);  // triangle
  b.ensure_vertices(6);  // vertices 3..5 isolated
  const Graph g = b.build();
  const IdAssignment ids = IdAssignment::identity(6);
  const auto verdict = run_tester(g, ids, 3, 2);
  EXPECT_FALSE(verdict.accepted);
}

TEST(Tester, NaivePruningModeAgreesOnSmallGraphs) {
  util::Rng rng(13);
  const Graph g = graph::random_connected(20, 30, rng);
  const IdAssignment ids = IdAssignment::identity(20);
  DetectorOptions opt;
  opt.k = 5;
  opt.repetitions = 6;
  opt.seed = 5;
  const auto fast = kTester.run_fresh(g, ids, opt);
  opt.pruning = PruningMode::kNaive;
  const auto naive = kTester.run_fresh(g, ids, opt);
  EXPECT_EQ(fast.accepted, naive.accepted);
}

TEST(Tester, FakeIdAblationStaysSoundOnFreeGraphs) {
  util::Rng rng(14);
  const Graph g = graph::ck_free_instance(graph::CkFreeFamily::kHighGirth, 7, 40, rng);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  DetectorOptions opt;
  opt.k = 7;
  opt.repetitions = 6;
  opt.fake_ids = false;
  const auto verdict = kTester.run_fresh(g, ids, opt);
  EXPECT_TRUE(verdict.accepted);  // dropping fake IDs can only lose detections
}

TEST(Tester, FakeIdAblationMissesLongCycle) {
  // §3.3: on a bare C9 the information pool I is too small without fake
  // IDs, nothing propagates past round 2, and the cycle escapes.
  const Graph g = graph::cycle(9);
  const IdAssignment ids = IdAssignment::identity(9);
  DetectorOptions opt;
  opt.k = 9;
  opt.repetitions = 3;
  opt.fake_ids = false;
  const auto without = kTester.run_fresh(g, ids, opt);
  EXPECT_TRUE(without.accepted);  // detection lost

  opt.fake_ids = true;
  const auto with = kTester.run_fresh(g, ids, opt);
  EXPECT_FALSE(with.accepted);  // restored
}

TEST(Tester, RejectsBadK) {
  const Graph g = graph::path(3);
  const IdAssignment ids = IdAssignment::identity(3);
  DetectorOptions opt;
  opt.k = 2;
  EXPECT_THROW((void)kTester.run_fresh(g, ids, opt), util::CheckError);
}

TEST(Tester, MessageBoundInstrumentationPopulated) {
  const Graph g = graph::complete_bipartite(6, 6);
  const IdAssignment ids = IdAssignment::identity(12);
  const auto verdict = run_tester(g, ids, 6, 3);
  EXPECT_GE(verdict.max_bundle_sequences, 1u);
  std::uint64_t bound = 1;
  for (unsigned t = 2; t <= 3; ++t) bound = std::max(bound, lemma3_bound(6, t));
  EXPECT_LE(verdict.max_bundle_sequences, bound);
}

}  // namespace
}  // namespace decycle::core
