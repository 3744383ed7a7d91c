#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/analysis.hpp"
#include "graph/subgraph.hpp"
#include "util/check.hpp"

namespace decycle::graph {
namespace {

TEST(Generators, Path) {
  const Graph g = path(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_FALSE(girth(g).has_value());
}

TEST(Generators, CycleHasGirthN) {
  for (const Vertex n : {3u, 4u, 7u, 12u}) {
    const Graph g = cycle(n);
    EXPECT_EQ(g.num_edges(), n);
    for (Vertex v = 0; v < n; ++v) EXPECT_EQ(g.degree(v), 2u);
    ASSERT_TRUE(girth(g).has_value());
    EXPECT_EQ(*girth(g), n);
  }
}

TEST(Generators, CycleRejectsTiny) { EXPECT_THROW((void)cycle(2), util::CheckError); }

TEST(Generators, Complete) {
  const Graph g = complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_EQ(*girth(g), 3u);
}

TEST(Generators, CompleteBipartite) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_TRUE(bipartition(g).has_value());
  EXPECT_EQ(*girth(g), 4u);
}

TEST(Generators, Star) {
  const Graph g = star(8);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_EQ(g.degree(0), 7u);
  EXPECT_FALSE(girth(g).has_value());
}

TEST(Generators, GridFlat) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 17u);  // 3*3 horizontal + 2*4 vertical
  EXPECT_EQ(*girth(g), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Torus) {
  const Graph g = grid(4, 4, /*wrap=*/true);
  for (Vertex v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(*girth(g), 4u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);
  for (Vertex v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(bipartition(g).has_value());
  EXPECT_EQ(*girth(g), 4u);
}

TEST(Generators, RandomTreeIsTree) {
  util::Rng rng(1);
  const Graph g = random_tree(200, rng);
  EXPECT_EQ(g.num_edges(), 199u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(girth(g).has_value());
}

TEST(Generators, GnmExactEdgeCount) {
  util::Rng rng(2);
  const Graph g = erdos_renyi_gnm(100, 300, rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
}

TEST(Generators, GnmFullDensityIsComplete) {
  util::Rng rng(3);
  const Graph g = erdos_renyi_gnm(10, 45, rng);
  EXPECT_EQ(g.num_edges(), 45u);
  for (Vertex v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 9u);
}

TEST(Generators, GnmRejectsOverfull) {
  util::Rng rng(4);
  EXPECT_THROW((void)erdos_renyi_gnm(4, 7, rng), util::CheckError);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  util::Rng rng(5);
  const Graph g = erdos_renyi_gnp(100, 0.1, rng);
  const double expected = 0.1 * (100.0 * 99.0 / 2.0);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 5 * std::sqrt(expected));
}

TEST(Generators, RandomRegularDegrees) {
  util::Rng rng(6);
  const Graph g = random_regular(50, 4, rng);
  EXPECT_EQ(g.num_edges(), 100u);
  for (Vertex v = 0; v < 50; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  util::Rng rng(7);
  EXPECT_THROW((void)random_regular(5, 3, rng), util::CheckError);
}

TEST(Generators, RandomBipartiteSidesRespected) {
  util::Rng rng(8);
  const Graph g = random_bipartite(20, 30, 100, rng);
  EXPECT_EQ(g.num_edges(), 100u);
  const auto coloring = bipartition(g);
  ASSERT_TRUE(coloring.has_value());
  for (const auto& [u, v] : g.edges()) {
    EXPECT_LT(u, 20u);
    EXPECT_GE(v, 20u);
  }
}

TEST(Generators, RandomConnectedIsConnectedWithExactEdges) {
  util::Rng rng(9);
  const Graph g = random_connected(80, 200, rng);
  EXPECT_EQ(g.num_edges(), 200u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomConnectedRejectsTooFewEdges) {
  util::Rng rng(10);
  EXPECT_THROW((void)random_connected(10, 5, rng), util::CheckError);
}

TEST(Generators, DeterministicForFixedSeed) {
  util::Rng a(77), b(77);
  const Graph ga = erdos_renyi_gnm(60, 120, a);
  const Graph gb = erdos_renyi_gnm(60, 120, b);
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  const auto ea = ga.edges();
  const auto eb = gb.edges();
  for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);
}

// --- circulant generator ----------------------------------------------------

TEST(Circulant, DegreeAndMembership) {
  const Graph g = circulant(17, 3);
  EXPECT_EQ(g.num_vertices(), 17u);
  EXPECT_EQ(g.num_edges(), 17u * 3);
  for (Vertex u = 0; u < 17; ++u) {
    EXPECT_EQ(g.degree(u), 6u) << u;
    for (std::uint32_t j = 1; j <= 3; ++j) {
      EXPECT_TRUE(g.has_edge(u, (u + j) % 17)) << u << "+" << j;
      EXPECT_TRUE(g.has_edge(u, (u + 17 - j) % 17)) << u << "-" << j;
    }
    EXPECT_FALSE(g.has_edge(u, (u + 4) % 17));
  }
}

TEST(Circulant, MatchesBuilderConstruction) {
  const Vertex n = 23;
  const std::uint32_t k = 4;
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u)
    for (std::uint32_t j = 1; j <= k; ++j) b.add_edge(u, (u + j) % n);
  const Graph reference = b.build();
  const Graph streamed = circulant(n, k);
  ASSERT_EQ(streamed.num_edges(), reference.num_edges());
  EXPECT_TRUE(std::ranges::equal(streamed.edges(), reference.edges()));
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_TRUE(std::ranges::equal(streamed.neighbors(v), reference.neighbors(v))) << v;
  }
}

TEST(Circulant, K1IsACycle) {
  const Graph g = circulant(9, 1);
  const Graph c = cycle(9);
  EXPECT_TRUE(std::ranges::equal(g.edges(), c.edges()));
}

TEST(Circulant, RejectsTooSmallN) {
  EXPECT_THROW((void)circulant(8, 4), util::CheckError);
  EXPECT_THROW((void)circulant(5, 0), util::CheckError);
}

}  // namespace
}  // namespace decycle::graph
