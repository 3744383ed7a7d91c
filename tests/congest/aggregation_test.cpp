#include <gtest/gtest.h>

#include <memory>

#include "congest/algorithms/neighbor_discovery.hpp"
#include "congest/algorithms/or_flood.hpp"
#include "congest/simulator.hpp"
#include "core/tester.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace decycle::congest {
namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

void expect_or_flood(const Graph& g, const std::vector<bool>& inputs, bool expected,
                     std::uint64_t max_rounds_hint = 0) {
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  Simulator sim(g, ids,
                [&](Vertex v) { return std::make_unique<OrFloodProgram>(inputs[v]); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto& prog = static_cast<const OrFloodProgram&>(sim.program(v));
    EXPECT_EQ(prog.value(), expected) << "v=" << v;
  }
  if (max_rounds_hint != 0) {
    EXPECT_LE(stats.rounds_executed, max_rounds_hint);
  }
}

TEST(OrFlood, AllZerosQuiesceImmediately) {
  expect_or_flood(graph::grid(5, 5), std::vector<bool>(25, false), false, 2);
}

TEST(OrFlood, SingleOneReachesEveryone) {
  std::vector<bool> inputs(20, false);
  inputs[0] = true;
  // Path: worst case diameter 19; +2 slack for seed/quiesce rounds.
  expect_or_flood(graph::path(20), inputs, true, 22);
}

TEST(OrFlood, ManyOnesStillOneAnnouncementEach) {
  const Graph g = graph::complete(10);
  const IdAssignment ids = IdAssignment::identity(10);
  Simulator sim(g, ids, [&](Vertex) { return std::make_unique<OrFloodProgram>(true); });
  const RunStats stats = sim.run();
  // Each node announces exactly once: 10 * 9 directed messages.
  EXPECT_EQ(stats.total_messages, 90u);
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_TRUE(static_cast<const OrFloodProgram&>(sim.program(v)).value());
  }
}

TEST(OrFlood, ComposesWithTesterForGlobalVerdict) {
  // The deployment pipeline: run the tester, then disseminate the OR of the
  // per-node verdicts so every node knows whether the network has a C5.
  util::Rng rng(4);
  const Graph g = graph::wheel(12);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  core::DetectorOptions topt;
  topt.k = 5;
  topt.repetitions = 6;
  topt.seed = 2;

  // Stage 1: the tester; its programs stay on the simulator after the run
  // (the harness view of per-node outputs).
  congest::Simulator tester_sim(g, ids);
  (void)core::DetectorRegistry::builtin().require("tester").run(tester_sim, topt);
  std::vector<bool> rejected(g.num_vertices(), false);
  bool any = false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    rejected[v] = static_cast<const core::TesterProgram&>(tester_sim.program(v)).rejected();
    any = any || rejected[v];
  }
  ASSERT_TRUE(any);  // the wheel is rich in C5s

  // Stage 2: OR-flood the verdict; every node must learn "reject".
  expect_or_flood(g, rejected, true);
}

TEST(NeighborDiscovery, LearnsAllPortIds) {
  util::Rng rng(9);
  const Graph g = graph::random_connected(30, 60, rng);
  const IdAssignment ids = IdAssignment::random_quadratic(30, rng);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<NeighborDiscoveryProgram>(); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_LE(stats.rounds_executed, 2u);  // KT0 -> KT1 costs one exchange round
  for (Vertex v = 0; v < 30; ++v) {
    const auto& prog = static_cast<const NeighborDiscoveryProgram&>(sim.program(v));
    const auto nb = g.neighbors(v);
    ASSERT_EQ(prog.learned().size(), nb.size());
    for (std::size_t p = 0; p < nb.size(); ++p) {
      EXPECT_EQ(prog.learned()[p], ids.id_of(nb[p]));
    }
  }
}

TEST(NeighborDiscovery, IsolatedVertexLearnsNothing) {
  graph::GraphBuilder b;
  b.add_edge(0, 1);
  b.ensure_vertices(3);
  const Graph g = b.build();
  const IdAssignment ids = IdAssignment::identity(3);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<NeighborDiscoveryProgram>(); });
  (void)sim.run();
  EXPECT_TRUE(static_cast<const NeighborDiscoveryProgram&>(sim.program(2)).learned().empty());
}

}  // namespace
}  // namespace decycle::congest
