#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, BuildsCsrFromEdgeList) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, NeighborsSorted) {
  const std::vector<Edge> edges{{3, 0}, {0, 1}, {2, 0}};
  const Graph g = Graph::from_edges(4, edges);
  const auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(nb[1], 2u);
  EXPECT_EQ(nb[2], 3u);
}

TEST(Graph, DeduplicatesParallelEdges) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, RejectsSelfLoop) {
  const std::vector<Edge> edges{{1, 1}};
  EXPECT_THROW((void)Graph::from_edges(2, edges), util::CheckError);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW((void)Graph::from_edges(3, edges), util::CheckError);
}

TEST(Graph, HasEdgeBothDirections) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));  // out of range is just "no"
}

TEST(Graph, EdgesCanonicalAndSorted) {
  const std::vector<Edge> edges{{2, 1}, {1, 0}, {3, 2}};
  const Graph g = Graph::from_edges(4, edges);
  const auto all = g.edges();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], (Edge{0, 1}));
  EXPECT_EQ(all[1], (Edge{1, 2}));
  EXPECT_EQ(all[2], (Edge{2, 3}));
}

TEST(Graph, EdgeIdRoundTrip) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 3}};
  const Graph g = Graph::from_edges(4, edges);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    EXPECT_EQ(g.edge_id(u, v), e);
    EXPECT_EQ(g.edge_id(v, u), e);  // orientation-insensitive
  }
  EXPECT_EQ(g.edge_id(1, 3), kInvalidEdge);
}

TEST(GraphBuilder, GrowsVertexCount) {
  GraphBuilder b;
  b.add_edge(0, 9);
  EXPECT_EQ(b.num_vertices(), 10u);
  b.ensure_vertices(20);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.degree(19), 0u);
}

TEST(GraphBuilder, RejectsSelfLoopEarly) {
  GraphBuilder b;
  EXPECT_THROW(b.add_edge(2, 2), util::CheckError);
}

TEST(DisjointUnion, ShiftsIndices) {
  const Graph a = Graph::from_edges(2, std::vector<Edge>{{0, 1}});
  const Graph b = Graph::from_edges(3, std::vector<Edge>{{0, 2}});
  const std::vector<Graph> parts{a, b};
  const Graph u = disjoint_union(parts);
  EXPECT_EQ(u.num_vertices(), 5u);
  EXPECT_EQ(u.num_edges(), 2u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(2, 4));
  EXPECT_FALSE(u.has_edge(1, 2));
}

TEST(IdAssignment, IdentityMapsBothWays) {
  const IdAssignment ids = IdAssignment::identity(5);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(ids.id_of(v), v);
    EXPECT_EQ(ids.vertex_of(v), v);
  }
  EXPECT_EQ(ids.max_id(), 4u);
}

TEST(IdAssignment, RandomQuadraticDistinctAndBounded) {
  util::Rng rng(5);
  const IdAssignment ids = IdAssignment::random_quadratic(50, rng);
  std::set<NodeId> seen;
  for (Vertex v = 0; v < 50; ++v) {
    const NodeId id = ids.id_of(v);
    EXPECT_LT(id, 2500u);
    EXPECT_TRUE(seen.insert(id).second);
    EXPECT_EQ(ids.vertex_of(id), v);
  }
}

TEST(IdAssignment, ShuffledIsPermutation) {
  util::Rng rng(6);
  const IdAssignment ids = IdAssignment::shuffled(100, rng);
  std::set<NodeId> seen;
  for (Vertex v = 0; v < 100; ++v) {
    const NodeId id = ids.id_of(v);
    EXPECT_LT(id, 100u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(IdAssignment, RejectsDuplicateIds) {
  EXPECT_THROW((void)IdAssignment::from_ids({1, 2, 1}), util::CheckError);
}

TEST(IdAssignment, UnknownIdThrows) {
  const IdAssignment ids = IdAssignment::identity(3);
  EXPECT_THROW((void)ids.vertex_of(99), util::CheckError);
  EXPECT_FALSE(ids.has_id(99));
  EXPECT_TRUE(ids.has_id(2));
}

// --- Streaming (sort-free) CSR build ---------------------------------------

TEST(OrderedEdges, MatchesGenericBuildOnRandomGraphs) {
  util::Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const Vertex n = 30 + 7 * trial;
    const Graph g = erdos_renyi_gnm(n, 2 * n, rng);
    // Graph::edges() is canonical and sorted — a valid ordered stream.
    std::vector<Edge> edges(g.edges().begin(), g.edges().end());
    const Graph streamed = Graph::from_ordered_edges(n, std::move(edges));
    ASSERT_EQ(streamed.num_edges(), g.num_edges());
    ASSERT_EQ(streamed.max_degree(), g.max_degree());
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_TRUE(std::ranges::equal(streamed.neighbors(v), g.neighbors(v))) << v;
    }
    EXPECT_TRUE(std::ranges::equal(streamed.edges(), g.edges()));
  }
}

TEST(OrderedEdges, RejectsNonCanonicalPairs) {
  EXPECT_THROW((void)Graph::from_ordered_edges(4, {{1, 0}}), util::CheckError);
  EXPECT_THROW((void)Graph::from_ordered_edges(4, {{2, 2}}), util::CheckError);
  EXPECT_THROW((void)Graph::from_ordered_edges(4, {{0, 9}}), util::CheckError);
}

TEST(OrderedEdges, RejectsOutOfOrderAndDuplicateEdges) {
  EXPECT_THROW((void)Graph::from_ordered_edges(5, {{0, 2}, {0, 1}}), util::CheckError);
  EXPECT_THROW((void)Graph::from_ordered_edges(5, {{1, 2}, {0, 3}}), util::CheckError);
  EXPECT_THROW((void)Graph::from_ordered_edges(5, {{0, 1}, {0, 1}}), util::CheckError);
}

TEST(OrderedEdges, ErrorsNameTheOffendingEdgeIndex) {
  // A caller staring at a million-edge stream needs the index and the edge,
  // not just which contract broke.
  const auto message_of = [](const std::function<void()>& fn) -> std::string {
    try {
      fn();
    } catch (const util::CheckError& e) {
      return e.what();
    }
    return {};
  };
  const std::string non_canonical =
      message_of([] { (void)Graph::from_ordered_edges(4, {{0, 1}, {2, 1}}); });
  EXPECT_NE(non_canonical.find("edge 1 (2,1)"), std::string::npos) << non_canonical;
  EXPECT_NE(non_canonical.find("canonical"), std::string::npos) << non_canonical;

  const std::string out_of_range =
      message_of([] { (void)Graph::from_ordered_edges(4, {{0, 1}, {1, 2}, {2, 9}}); });
  EXPECT_NE(out_of_range.find("edge 2 (2,9)"), std::string::npos) << out_of_range;
  EXPECT_NE(out_of_range.find("out of range (n=4)"), std::string::npos) << out_of_range;

  const std::string unsorted =
      message_of([] { (void)Graph::from_ordered_edges(5, {{1, 2}, {0, 3}}); });
  EXPECT_NE(unsorted.find("edge 1 (0,3)"), std::string::npos) << unsorted;
  EXPECT_NE(unsorted.find("previous (1,2)"), std::string::npos) << unsorted;

  const std::string duplicate =
      message_of([] { (void)Graph::from_ordered_edges(5, {{0, 1}, {0, 1}}); });
  EXPECT_NE(duplicate.find("edge 1 (0,1)"), std::string::npos) << duplicate;
  EXPECT_NE(duplicate.find("duplicate or unsorted"), std::string::npos) << duplicate;
}

TEST(OrderedEdges, EmptyAndEdgelessGraphs) {
  const Graph empty = Graph::from_ordered_edges(0, {});
  EXPECT_EQ(empty.num_vertices(), 0u);
  const Graph bare = Graph::from_ordered_edges(5, {});
  EXPECT_EQ(bare.num_vertices(), 5u);
  EXPECT_EQ(bare.num_edges(), 0u);
  EXPECT_EQ(bare.max_degree(), 0u);
}

}  // namespace
}  // namespace decycle::graph
