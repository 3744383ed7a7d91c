#include "graph/analysis.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace decycle::graph {
namespace {

TEST(BfsDistances, PathDistances) {
  const Graph g = path(6);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(BfsDistances, UnreachableMarked) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.ensure_vertices(4);
  const auto d = bfs_distances(b.build(), 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(BfsDistances, CapLimitsExpansion) {
  const Graph g = path(10);
  const auto d = bfs_distances(g, 0, 3);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], kUnreachable);
}

TEST(Components, CountsAndLabels) {
  const std::vector<Graph> parts{cycle(3), path(4), star(5)};
  const Graph g = disjoint_union(parts);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp.count, 3u);
  EXPECT_EQ(comp.label[0], comp.label[2]);
  EXPECT_NE(comp.label[0], comp.label[3]);
  EXPECT_NE(comp.label[3], comp.label[7]);
  EXPECT_FALSE(is_connected(g));
}

TEST(Components, SingletonGraphConnected) {
  const Graph g = Graph::from_edges(1, {});
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(connected_components(g).count, 1u);
}

TEST(Bipartition, EvenCycleBipartite) {
  const auto coloring = bipartition(cycle(8));
  ASSERT_TRUE(coloring.has_value());
  const Graph g = cycle(8);
  for (const auto& [u, v] : g.edges()) EXPECT_NE((*coloring)[u], (*coloring)[v]);
}

TEST(Bipartition, OddCycleNot) { EXPECT_FALSE(bipartition(cycle(7)).has_value()); }

TEST(Bipartition, ForestAlwaysBipartite) {
  util::Rng rng(3);
  EXPECT_TRUE(bipartition(random_tree(100, rng)).has_value());
}

TEST(Bipartition, HandlesDisconnected) {
  const std::vector<Graph> parts{cycle(4), cycle(3)};
  EXPECT_FALSE(bipartition(disjoint_union(parts)).has_value());
  const std::vector<Graph> even_parts{cycle(4), cycle(6)};
  EXPECT_TRUE(bipartition(disjoint_union(even_parts)).has_value());
}

}  // namespace
}  // namespace decycle::graph
