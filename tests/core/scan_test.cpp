#include "core/scan.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::core {
namespace {

using graph::Graph;
using graph::IdAssignment;

ScanResult run_scan(const Graph& g, unsigned k, bool stop_at_first = true) {
  ScanOptions opt;
  opt.detect.k = k;
  opt.stop_at_first = stop_at_first;
  return exhaustive_ck_scan(g, IdAssignment::identity(g.num_vertices()), opt);
}

TEST(Scan, ExactOnRandomGraphs) {
  util::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(14, 22, rng);
    for (const unsigned k : {3u, 4u, 5u, 6u}) {
      const auto result = run_scan(g, k);
      EXPECT_EQ(result.found, graph::has_cycle(g, k)) << "k=" << k << " trial=" << trial;
      if (result.found) {
        EXPECT_TRUE(graph::validate_cycle(g, result.witness));
      }
    }
  }
}

TEST(Scan, FindsTheSingleHiddenCycle) {
  // No farness, no randomness: a needle in a big cycle-free haystack.
  util::Rng rng(2);
  graph::PlantedOptions popt;
  popt.k = 6;
  popt.num_cycles = 1;
  popt.padding_leaves = 200;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const auto result = run_scan(inst.graph, 6);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, result.witness));
}

TEST(Scan, EarlyExitStopsCheckingEdges) {
  const Graph g = graph::complete(10);
  const auto eager = run_scan(g, 5, /*stop_at_first=*/true);
  const auto full = run_scan(g, 5, /*stop_at_first=*/false);
  EXPECT_TRUE(eager.found);
  EXPECT_TRUE(full.found);
  EXPECT_LT(eager.edges_checked, full.edges_checked);
  EXPECT_EQ(full.edges_checked, g.num_edges());
}

TEST(Scan, ScheduleRoundsFormula) {
  const Graph g = graph::path(12);  // no cycles: full sweep
  const auto result = run_scan(g, 7);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.edges_checked, g.num_edges());
  EXPECT_EQ(result.schedule_rounds, g.num_edges() * (7 / 2 + 1));
}

TEST(Scan, EmptyGraph) {
  const Graph g = Graph::from_edges(4, {});
  const auto result = run_scan(g, 4);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.edges_checked, 0u);
}

}  // namespace
}  // namespace decycle::core
