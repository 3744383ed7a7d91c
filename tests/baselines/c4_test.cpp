#include "baselines/c4_tester.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {
namespace {

using graph::Graph;
using graph::IdAssignment;

core::Verdict run_c4(const Graph& g, std::size_t iterations, std::uint64_t seed = 1) {
  core::DetectorOptions opt;
  opt.k = 4;
  opt.repetitions = iterations;
  opt.seed = seed;
  return core::DetectorRegistry::builtin().require("c4").run_fresh(
      g, IdAssignment::identity(g.num_vertices()), opt);
}

TEST(C4Frst, FindsC4InFourCycle) {
  const Graph g = graph::cycle(4);
  const auto verdict = run_c4(g, 16);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.witness.size(), 4u);
  EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
}

TEST(C4Frst, SoundOnC4FreeGraphs) {
  util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::high_girth_graph(40, 60, 4, rng);  // girth > 4
    EXPECT_TRUE(run_c4(g, 64, 50 + static_cast<std::uint64_t>(trial)).accepted);
  }
}

TEST(C4Frst, TriangleFreeButC4RichDetected) {
  const Graph g = graph::complete_bipartite(6, 6);  // many C4s, no triangles
  const auto verdict = run_c4(g, 64);
  EXPECT_FALSE(verdict.accepted);
}

TEST(C4Frst, DetectsPlantedC4s) {
  util::Rng rng(5);
  graph::PlantedOptions popt;
  popt.k = 4;
  popt.num_cycles = 8;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const auto verdict = run_c4(inst.graph, 128);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));
}

TEST(C4Frst, OneRoundPerIteration) {
  const Graph g = graph::cycle(4);
  const auto verdict = run_c4(g, 10);
  EXPECT_LE(verdict.stats.rounds_executed, 12u);
}

}  // namespace
}  // namespace decycle::baselines
