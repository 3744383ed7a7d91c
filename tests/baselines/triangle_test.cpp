#include "baselines/triangle_chs.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {
namespace {

using graph::Graph;
using graph::IdAssignment;

core::Verdict run_triangle(const Graph& g, std::size_t iterations, std::uint64_t seed = 1) {
  core::DetectorOptions opt;
  opt.k = 3;
  opt.repetitions = iterations;
  opt.seed = seed;
  return core::DetectorRegistry::builtin().require("triangle").run_fresh(
      g, IdAssignment::identity(g.num_vertices()), opt);
}

TEST(TriangleChs, FindsTriangleInK3) {
  const Graph g = graph::complete(3);
  const auto verdict = run_triangle(g, 8);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.witness.size(), 3u);
  EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
}

TEST(TriangleChs, SoundOnTriangleFreeGraphs) {
  util::Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::random_bipartite(15, 15, 60, rng);  // bipartite: no triangles
    EXPECT_TRUE(run_triangle(g, 64, 100 + static_cast<std::uint64_t>(trial)).accepted);
  }
}

TEST(TriangleChs, DetectsDenseTriangleInstances) {
  const Graph g = graph::complete(12);
  const auto verdict = run_triangle(g, 32);
  EXPECT_FALSE(verdict.accepted);
}

TEST(TriangleChs, DetectsPlantedTrianglesWithEnoughIterations) {
  util::Rng rng(4);
  graph::PlantedOptions popt;
  popt.k = 3;
  popt.num_cycles = 10;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  // Planted nodes have degree <= 3: 128 iterations make detection easy.
  const auto verdict = run_triangle(inst.graph, 128);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));
}

TEST(TriangleChs, RoundsScaleWithIterations) {
  const Graph g = graph::complete(4);
  const auto verdict = run_triangle(g, 10);
  EXPECT_LE(verdict.stats.rounds_executed, 12u);
}

TEST(TriangleChs, HandlesLowDegreeGraphs) {
  const Graph g = graph::path(6);  // degrees < 2 at the ends
  EXPECT_TRUE(run_triangle(g, 16).accepted);
}

}  // namespace
}  // namespace decycle::baselines
