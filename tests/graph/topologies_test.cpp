#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/check.hpp"

namespace decycle::graph {
namespace {

TEST(Wheel, StructureAndCycleSpectrum) {
  const Graph g = wheel(8);  // hub + 7-rim
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 14u);  // 7 spokes + 7 rim edges
  EXPECT_EQ(g.degree(0), 7u);
  for (Vertex v = 1; v < 8; ++v) EXPECT_EQ(g.degree(v), 3u);
  // A wheel on n vertices contains Ck for every 3 <= k <= n.
  for (unsigned k = 3; k <= 8; ++k) EXPECT_TRUE(has_cycle(g, k)) << k;
  EXPECT_FALSE(has_cycle(g, 9));
}

TEST(Wheel, RejectsTooSmall) { EXPECT_THROW((void)wheel(3), util::CheckError); }

}  // namespace
}  // namespace decycle::graph
