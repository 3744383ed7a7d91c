#include "core/cycle_detector.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::core {
namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

const Detector& kChecker = DetectorRegistry::builtin().require("edge_checker");

Verdict run_detector(const Graph& g, const IdAssignment& ids, unsigned k, graph::Edge e,
                     PruningMode mode = PruningMode::kRepresentative) {
  DetectorOptions opt;
  opt.k = k;
  opt.pruning = mode;
  opt.edge = e;
  return kChecker.run_fresh(g, ids, opt);
}

TEST(EdgeChecker, DetectsPureCyclesAllK) {
  for (unsigned k = 3; k <= 11; ++k) {
    const Graph g = graph::cycle(k);
    const IdAssignment ids = IdAssignment::identity(k);
    for (const auto& e : g.edges()) {
      const auto result = run_detector(g, ids, k, e);
      ASSERT_FALSE(result.accepted) << "k=" << k;
      EXPECT_EQ(result.witness.size(), k);
      EXPECT_TRUE(graph::validate_cycle(g, result.witness));
      EXPECT_FALSE(result.overflow);
    }
  }
}

TEST(EdgeChecker, NoFalsePositivesOnPaths) {
  const Graph g = graph::path(12);
  const IdAssignment ids = IdAssignment::identity(12);
  for (unsigned k = 3; k <= 8; ++k) {
    for (const auto& e : g.edges()) {
      EXPECT_TRUE(run_detector(g, ids, k, e).accepted);
    }
  }
}

TEST(EdgeChecker, WrongLengthCycleNotReported) {
  const Graph g = graph::cycle(8);
  const IdAssignment ids = IdAssignment::identity(8);
  for (const unsigned k : {3u, 4u, 5u, 6u, 7u, 9u, 10u}) {
    EXPECT_TRUE(run_detector(g, ids, k, {0, 1}).accepted) << "k=" << k;
  }
}

TEST(EdgeChecker, RoundComplexityIsHalfKPlusOne) {
  for (unsigned k = 3; k <= 9; ++k) {
    const Graph g = graph::cycle(k);
    const IdAssignment ids = IdAssignment::identity(k);
    const auto result = run_detector(g, ids, k, {0, 1});
    EXPECT_LE(result.stats.rounds_executed, static_cast<std::uint64_t>(k / 2) + 1) << "k=" << k;
  }
}

TEST(EdgeChecker, SingleCycleNoFarnessNeeded) {
  // Lemma 2 commentary: even a single k-cycle through e is found — no ε-far
  // assumption. Bury one C7 inside a big tree.
  util::Rng rng(5);
  graph::GraphBuilder b;
  const Graph tree = graph::random_tree(300, rng);
  for (const auto& [u, v] : tree.edges()) b.add_edge(u, v);
  // A C7 hanging off vertex 100: vertices 300..305 plus 100.
  const std::vector<Vertex> cyc{100, 300, 301, 302, 303, 304, 305};
  for (std::size_t i = 0; i < cyc.size(); ++i) {
    b.add_edge(cyc[i], cyc[(i + 1) % cyc.size()]);
  }
  const Graph g = b.build();
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  const auto result = run_detector(g, ids, 7, {100, 300});
  ASSERT_FALSE(result.accepted);
  EXPECT_TRUE(graph::validate_cycle(g, result.witness));
  // Edges far from the cycle stay clean.
  EXPECT_TRUE(run_detector(g, ids, 7, g.edge(0)).accepted &&
              !graph::has_cycle_through_edge(g, 7, g.edge(0).first, g.edge(0).second));
}

struct ExactnessCase {
  unsigned k;
  graph::Vertex n;
  std::size_t m;
  std::uint64_t seed;
  bool shuffled_ids;
};

/// ctest names each case by this print (gtest_discover_tests), e.g.
/// "k3_n12_m22_seed1_shuffled0". The default print is the struct's raw
/// bytes, whose padding differs from build to build.
void PrintTo(const ExactnessCase& c, std::ostream* os) {
  *os << "k" << c.k << "_n" << c.n << "_m" << c.m << "_seed" << c.seed << "_shuffled"
      << (c.shuffled_ids ? 1 : 0);
}

class EdgeCheckerExactness : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(EdgeCheckerExactness, MatchesExactOracleOnEveryEdge) {
  const auto [k, n, m, seed, shuffled] = GetParam();
  util::Rng rng(seed);
  const Graph g = graph::erdos_renyi_gnm(n, m, rng);
  const IdAssignment ids =
      shuffled ? IdAssignment::random_quadratic(n, rng) : IdAssignment::identity(n);
  for (const auto& e : g.edges()) {
    const bool expected = graph::has_cycle_through_edge(g, k, e.first, e.second);
    const auto result = run_detector(g, ids, k, e);
    ASSERT_EQ(!result.accepted, expected)
        << "k=" << k << " edge=(" << e.first << "," << e.second << ") seed=" << seed;
    if (!result.accepted) {
      EXPECT_EQ(result.witness.size(), k);
      EXPECT_TRUE(graph::validate_cycle(g, result.witness));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, EdgeCheckerExactness,
    ::testing::Values(ExactnessCase{3, 12, 22, 1, false}, ExactnessCase{3, 12, 22, 2, true},
                      ExactnessCase{4, 12, 20, 3, false}, ExactnessCase{4, 14, 24, 4, true},
                      ExactnessCase{5, 12, 20, 5, false}, ExactnessCase{5, 13, 21, 6, true},
                      ExactnessCase{6, 12, 18, 7, false}, ExactnessCase{6, 13, 20, 8, true},
                      ExactnessCase{7, 13, 19, 9, false}, ExactnessCase{7, 14, 20, 10, true},
                      ExactnessCase{8, 14, 20, 11, false}, ExactnessCase{8, 14, 19, 12, true}));

TEST(EdgeChecker, PruningModesAgreeOnVerdict) {
  util::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(11, 17, rng);
    const IdAssignment ids = IdAssignment::identity(11);
    for (const unsigned k : {4u, 5u, 6u}) {
      for (const auto& e : g.edges()) {
        const bool fast = !run_detector(g, ids, k, e, PruningMode::kRepresentative).accepted;
        const bool ref = !run_detector(g, ids, k, e, PruningMode::kReference).accepted;
        const bool naive = !run_detector(g, ids, k, e, PruningMode::kNaive).accepted;
        EXPECT_EQ(fast, ref) << "k=" << k;
        EXPECT_EQ(fast, naive) << "k=" << k;
      }
    }
  }
}

TEST(EdgeChecker, Lemma3BundleBoundHolds) {
  // Dense neighborhoods: complete bipartite graphs stress the bundle size.
  for (const unsigned k : {4u, 5u, 6u, 7u}) {
    const Graph g = graph::complete_bipartite(8, 8);
    const IdAssignment ids = IdAssignment::identity(16);
    const auto result = run_detector(g, ids, k, g.edge(0));
    std::uint64_t max_bound = 0;
    for (unsigned t = 2; t <= k / 2; ++t) max_bound = std::max(max_bound, lemma3_bound(k, t));
    max_bound = std::max<std::uint64_t>(max_bound, 1);  // seeds
    EXPECT_LE(result.max_bundle_sequences, max_bound) << "k=" << k;
  }
}

TEST(EdgeChecker, DenseGraphHighK) {
  const Graph g = graph::complete(12);
  const IdAssignment ids = IdAssignment::identity(12);
  for (const unsigned k : {5u, 8u, 11u}) {
    const auto result = run_detector(g, ids, k, {0, 1});
    ASSERT_FALSE(result.accepted) << "k=" << k;
    EXPECT_TRUE(graph::validate_cycle(g, result.witness));
  }
}

TEST(EdgeChecker, NonEdgeRejected) {
  const Graph g = graph::path(5);
  const IdAssignment ids = IdAssignment::identity(5);
  EXPECT_THROW((void)run_detector(g, ids, 4, {0, 4}), util::CheckError);
}

TEST(EdgeChecker, PlantedFarInstanceEveryPlantedEdgeDetects) {
  util::Rng rng(31);
  graph::PlantedOptions opt;
  opt.k = 6;
  opt.num_cycles = 5;
  opt.padding_leaves = 15;
  const auto inst = graph::planted_cycles_instance(opt, rng);
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());
  for (const auto& cyc : inst.planted) {
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const graph::Edge e{cyc[i], cyc[(i + 1) % cyc.size()]};
      EXPECT_FALSE(run_detector(inst.graph, ids, 6, e).accepted);
    }
  }
}

}  // namespace
}  // namespace decycle::core
