/// \file bitset_equivalence_test.cpp
/// \brief Adjacency-representation equivalence: every registry detector must
/// produce identical verdicts on vector-backed and bitset-backed builds of
/// the same instance (the soak differential as the cross-checking harness).
#include "soak/differential.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "soak/space.hpp"
#include "util/rng.hpp"

namespace decycle::soak {
namespace {

using graph::AdjacencyMode;
using graph::Graph;

SoakScenario scenario(unsigned k, std::uint64_t seed) {
  SoakScenario s;
  s.k = k;
  s.epsilon = 0.25;
  s.repetitions = 2;
  s.budget = core::threshold::BudgetSchedule::none();
  s.track = 0;
  s.seed = seed;
  return s;
}

/// Rebuilds \p g with the representation forced both ways and runs the full
/// registry differential on each: the verdict of every detector — and the
/// oracle — must be independent of the adjacency encoding.
void expect_representation_invariant(const Graph& g, const SoakScenario& s,
                                     const std::string& label) {
  const Graph vec = Graph::from_edges(g.num_vertices(), g.edges(), AdjacencyMode::kVector);
  const Graph bits = Graph::from_edges(g.num_vertices(), g.edges(), AdjacencyMode::kBitset);
  ASSERT_FALSE(vec.uses_bitset()) << label;
  ASSERT_TRUE(bits.uses_bitset()) << label;

  const DifferentialReport rv = run_differential(vec, s);
  const DifferentialReport rb = run_differential(bits, s);

  EXPECT_EQ(rv.oracle.has_ck, rb.oracle.has_ck) << label;
  EXPECT_EQ(rv.mismatches, rb.mismatches) << label;
  ASSERT_EQ(rv.outcomes.size(), rb.outcomes.size()) << label;
  for (std::size_t i = 0; i < rv.outcomes.size(); ++i) {
    const DetectorOutcome& a = rv.outcomes[i];
    const DetectorOutcome& b = rb.outcomes[i];
    const std::string who = label + ": " + std::string(a.detector->name());
    EXPECT_EQ(a.ran, b.ran) << who;
    EXPECT_EQ(a.rejected, b.rejected) << who;
    EXPECT_EQ(a.exact_regime, b.exact_regime) << who;
    EXPECT_EQ(a.mismatch, b.mismatch) << who;
  }
  // Neither representation may introduce a mismatch of its own.
  EXPECT_TRUE(rv.mismatches.empty()) << label;
}

TEST(BitsetEquivalence, CkFreeInstance) {
  // A path is Ck-free for every k: all detectors accept on both builds.
  expect_representation_invariant(graph::path(14), scenario(5, 41), "path k=5");
}

TEST(BitsetEquivalence, PlantedCycleInstance) {
  expect_representation_invariant(graph::cycle(6), scenario(6, 42), "C6 k=6");
}

TEST(BitsetEquivalence, DenseClusteredInstance) {
  // Caveman: dense cliques (bitset-friendly clustering) plus one long
  // global ring; contains triangles and the inter-cave cycle.
  expect_representation_invariant(graph::caveman(4, 5), scenario(3, 43), "caveman k=3");
}

TEST(BitsetEquivalence, RandomInstancesAcrossK) {
  util::Rng rng(77);
  for (const unsigned k : {4u, 5u}) {
    const Graph g = graph::erdos_renyi_gnm(36, 80, rng);
    expect_representation_invariant(g, scenario(k, 100 + k),
                                    "gnm k=" + std::to_string(k));
  }
}

TEST(BitsetEquivalence, CirculantStreamingBuild) {
  // The scale path end to end: streaming build + forced bitset, against the
  // same topology built generically. C_n(1..2) contains C3 (u, u+1, u+2).
  expect_representation_invariant(graph::circulant(30, 2), scenario(3, 55), "circulant k=3");
}

}  // namespace
}  // namespace decycle::soak
