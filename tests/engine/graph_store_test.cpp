/// engine/graph_store.hpp: content-addressed pinned graphs.
#include <gtest/gtest.h>

#include "engine/graph_store.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace decycle::engine {
namespace {

graph::Graph ring(graph::Vertex n) { return graph::cycle(n); }

graph::IdAssignment ident(const graph::Graph& g) {
  return graph::IdAssignment::identity(g.num_vertices());
}

TEST(StructuralHash, IdenticalContentHashesEqual) {
  const graph::Graph a = ring(16);
  const graph::Graph b = ring(16);
  EXPECT_EQ(structural_hash(a, ident(a)), structural_hash(b, ident(b)));
}

TEST(StructuralHash, EdgeVertexAndIdChangesAllShift) {
  const graph::Graph base = ring(16);
  const std::uint64_t h0 = structural_hash(base, ident(base));

  EXPECT_NE(structural_hash(ring(17), ident(ring(17))), h0);

  graph::GraphBuilder b(16);
  for (const graph::Edge& e : base.edges()) b.add_edge(e.first, e.second);
  b.add_edge(0, 8);  // one chord
  const graph::Graph chord = b.build();
  EXPECT_NE(structural_hash(chord, ident(chord)), h0);

  // Same topology, different node ids.
  std::vector<graph::NodeId> ids(16);
  for (graph::Vertex v = 0; v < 16; ++v) ids[v] = 1000 + v;
  EXPECT_NE(structural_hash(base, graph::IdAssignment::from_ids(std::move(ids))), h0);
}

TEST(Pin, ComputesHashAndStartsAtEpochZero) {
  const graph::Graph g = ring(8);
  const PinnedGraphPtr p = pin(g, ident(g));
  EXPECT_EQ(p->hash, structural_hash(g, ident(g)));
  EXPECT_EQ(p->epoch.load(), 0u);
  EXPECT_EQ(p->graph.num_vertices(), 8u);
}

TEST(Pin, AcceptsPrecomputedContentHash) {
  const graph::Graph g = ring(8);
  const PinnedGraphPtr p = pin(g, ident(g), 0xabcdULL);
  EXPECT_EQ(p->hash, 0xabcdULL);
}

}  // namespace
}  // namespace decycle::engine
