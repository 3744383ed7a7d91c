#include "soak/shrink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "fault_injection.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "soak/repro.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::soak {
namespace {

incremental::InsertStream stream_of(const graph::Graph& g) {
  incremental::InsertStream s;
  s.n = g.num_vertices();
  s.inserts.assign(g.edges().begin(), g.edges().end());
  return s;
}

/// A haystack instance for the planted unsound fault: one C_{k+1} (a cycle,
/// but C_k-free) buried in a random tree plus bridge edges. The fault
/// rejects it (a cycle exists), the oracle clears it (no C_k) — and only the
/// k+1 cycle vertices actually matter.
graph::Graph haystack(unsigned k, util::Rng& rng) {
  const graph::Graph tree = graph::random_tree(36, rng);
  graph::GraphBuilder b(tree.num_vertices());
  for (const graph::Edge& e : tree.edges()) b.add_edge(e.first, e.second);
  const graph::Vertex first = b.num_vertices();
  for (unsigned i = 0; i <= k; ++i) {
    b.add_edge(first + i, first + (i + 1) % (k + 1));
  }
  b.add_edge(first, 0);       // bridge the cycle into the tree
  b.add_edge(first + 2, 17);  // and once more, so it is not a lone cut edge
  return b.build();
}

TEST(Shrink, RemoveVertexRenumbersAndDropsIncidentEdges) {
  // 0-1-2-3-4-0, in insertion order 0-1, 2-3, 4-0, 1-2, 3-4.
  incremental::InsertStream s;
  s.n = 5;
  s.inserts = {{0, 1}, {2, 3}, {4, 0}, {1, 2}, {3, 4}};
  const incremental::InsertStream h = remove_vertex(s, 2);
  EXPECT_EQ(h.n, 4u);
  // The two inserts at vertex 2 are gone; the rest keep their order, with
  // the vertices above 2 renumbered down.
  const std::vector<incremental::Insert> expected = {{0, 1}, {3, 0}, {2, 3}};
  EXPECT_EQ(h.inserts, expected);
}

TEST(Shrink, RemoveEdgeKeepsVertices) {
  const incremental::InsertStream s = stream_of(graph::cycle(4));
  const incremental::InsertStream h = remove_insert(s, 0);
  EXPECT_EQ(h.n, 4u);
  EXPECT_EQ(h.inserts.size(), 3u);
  EXPECT_EQ(h.inserts.front(), s.inserts[1]);
}

TEST(Shrink, RequiresAReproducingInput) {
  const ShrinkPredicate never = [](const ReproCase&) { return false; };
  ReproCase c;
  c.stream = stream_of(graph::cycle(4));
  EXPECT_THROW((void)shrink_mismatch(c, never), util::CheckError);
}

/// The acceptance-criterion test: an artificially injected unsound verdict
/// shrinks to a repro with <= 2k+2 vertices that replays deterministically
/// through the repro file path (what `decycle_soak --repro` executes).
TEST(Shrink, ReducesPlantedUnsoundVerdictToMinimalReplayableRepro) {
  constexpr unsigned kK = 5;
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::FaultyRejector>());

  util::Rng rng(0x50AC);
  const graph::Graph g = haystack(kK, rng);
  ASSERT_GE(g.num_vertices(), 40u);
  ASSERT_FALSE(graph::has_cycle(g, kK));  // C_k-free: rejection is unsound

  // Start from a deliberately messy scenario so scalar tightening has work.
  ReproCase c;
  c.detector = "faulty_rejector";
  c.kind = MismatchKind::kUnsound;
  c.scenario.k = kK;
  c.scenario.epsilon = 0.25;
  c.scenario.repetitions = 4;
  c.scenario.budget = core::threshold::BudgetSchedule::constant(16);
  c.scenario.track = 4;
  c.scenario.adversary = lab::parse_adversary("uniform:0.5");
  c.scenario.seed = 77;
  c.stream = stream_of(g);
  ASSERT_TRUE(reproduces(c, check_case(c, registry)));

  const ShrinkOutcome shrunk = shrink_mismatch(c, mismatch_predicate(registry));
  EXPECT_TRUE(shrunk.stats.converged);
  EXPECT_GT(shrunk.stats.probes, 0u);

  // Minimality: the fault needs one cycle, so 1-minimality means a bare
  // cycle — every vertex degree 2, as many edges as vertices — that is
  // C_k-free (the haystack contains a C_{k+1} and a slightly longer
  // tree-path cycle; greedy deletion keeps one of them), comfortably under
  // the 2k+2 acceptance bound.
  const graph::Graph bare =
      graph::Graph::from_edges(shrunk.repro.stream.n, shrunk.repro.stream.inserts);
  EXPECT_LE(bare.num_vertices(), 2 * kK + 2);
  EXPECT_GE(bare.num_vertices(), kK + 1);
  EXPECT_EQ(bare.num_edges(), bare.num_vertices());
  for (graph::Vertex v = 0; v < bare.num_vertices(); ++v) {
    EXPECT_EQ(bare.degree(v), 2u) << "vertex " << v << " is not on the bare cycle";
  }
  EXPECT_FALSE(graph::has_cycle(bare, kK));

  // Scalars tightened: the fault ignores every knob, so all of them drop to
  // their simplest form.
  const SoakScenario& s = shrunk.repro.scenario;
  EXPECT_EQ(s.adversary.kind, lab::AdversarySpec::Kind::kNone);
  EXPECT_EQ(s.repetitions, 1u);
  EXPECT_TRUE(s.budget.unlimited());
  EXPECT_EQ(s.track, 0u);

  // Still reproduces, and replays deterministically via the repro file
  // round-trip: write -> read -> replay, twice, bit-equal results.
  std::ostringstream file;
  write_repro(file, shrunk.repro);
  for (int round = 0; round < 2; ++round) {
    std::istringstream in(file.str());
    const ReproCase loaded = read_repro(in);
    EXPECT_EQ(loaded.detector, "faulty_rejector");
    EXPECT_EQ(loaded.kind, MismatchKind::kUnsound);
    EXPECT_EQ(loaded.scenario.key(), s.key());
    const ReplayResult replayed = replay_repro(loaded, registry);
    EXPECT_TRUE(replayed.reproduced);
    EXPECT_EQ(replayed.observed, MismatchKind::kUnsound);
    // The loaded case re-serializes to identical bytes.
    std::ostringstream again;
    write_repro(again, loaded);
    EXPECT_EQ(again.str(), file.str());
  }
}

TEST(Shrink, HonorsTheProbeBudget) {
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::FaultyRejector>());
  util::Rng rng(0x50AD);
  ReproCase c;
  c.detector = "faulty_rejector";
  c.scenario.k = 5;
  c.stream = stream_of(haystack(5, rng));
  ShrinkOptions options;
  options.max_probes = 10;  // far too few to finish
  const ShrinkOutcome shrunk = shrink_mismatch(c, mismatch_predicate(registry), options);
  EXPECT_LE(shrunk.stats.probes, 10u);
  EXPECT_FALSE(shrunk.stats.converged);
  // Whatever it kept still reproduces.
  EXPECT_TRUE(reproduces(shrunk.repro, check_case(shrunk.repro, registry)));
}

TEST(Shrink, CutsAPrefixCaseToItsFailingPrefixFirst) {
  // A path, then the closing insert of a triangle, then more path: the
  // planted missed cycle surfaces at the closing insert, so the binary
  // search keeps exactly the inserts up to it.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::SleepyAcceptor>());
  ReproCase c;
  c.contract = Contract::kPrefix;
  c.detector = "sleepy_acceptor";
  c.kind = MismatchKind::kMissedCycle;
  c.scenario.k = 4;
  c.stream.n = 8;
  c.stream.inserts = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 7}};
  ShrinkOptions options;
  options.max_rounds = 0;  // the prefix cut and knob sweeps only
  const ShrinkOutcome shrunk = shrink_mismatch(c, mismatch_predicate(registry), options);
  EXPECT_EQ(shrunk.repro.stream.inserts.size(), 3u);
  EXPECT_EQ(shrunk.repro.stream.n, 8u);
}

}  // namespace
}  // namespace decycle::soak
