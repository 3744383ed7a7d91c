#include "baselines/color_coding.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {
namespace {

using graph::Graph;

const core::Detector& kColorCoding = core::DetectorRegistry::builtin().require("color_coding");

core::Verdict run_color_coding(const Graph& g, unsigned k, std::size_t iterations,
                               std::uint64_t seed = 1) {
  core::DetectorOptions opt;
  opt.k = k;
  opt.repetitions = iterations;
  opt.seed = seed;
  return kColorCoding.run_fresh(g, graph::IdAssignment::identity(g.num_vertices()), opt);
}

TEST(ColorCoding, FindsPureCycles) {
  for (unsigned k = 3; k <= 9; ++k) {
    const Graph g = graph::cycle(k);
    // The default iteration count targets δ = 1/3 (the property-testing
    // guarantee); for a deterministic test drive the failure odds to 1e-6.
    const auto result = run_color_coding(g, k, color_coding_iterations(k, 1e-6), k);
    EXPECT_FALSE(result.accepted) << "k=" << k;
    EXPECT_EQ(result.witness.size(), k);
    EXPECT_TRUE(graph::validate_cycle(g, result.witness));
  }
}

TEST(ColorCoding, NeverFindsInForests) {
  util::Rng rng(2);
  const Graph g = graph::random_tree(60, rng);
  for (const unsigned k : {3u, 5u, 7u}) {
    EXPECT_TRUE(run_color_coding(g, k, 50).accepted);
  }
}

TEST(ColorCoding, ExactLengthOnly) {
  const Graph g = graph::cycle(8);
  EXPECT_TRUE(run_color_coding(g, 5, 200).accepted);
  EXPECT_TRUE(run_color_coding(g, 7, 200).accepted);
}

TEST(ColorCoding, AgreesWithExactOracleOnRandomGraphs) {
  util::Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(16, 28, rng);
    for (const unsigned k : {4u, 5u, 6u}) {
      const bool exact = graph::has_cycle(g, k);
      const std::size_t iterations = exact ? 400 : 30;  // enough to make misses unlikely
      const auto result =
          run_color_coding(g, k, iterations, 1000 + static_cast<std::uint64_t>(trial));
      if (!result.accepted) {
        EXPECT_TRUE(exact);  // one-sided: found implies real
        EXPECT_TRUE(graph::validate_cycle(g, result.witness));
      } else {
        EXPECT_FALSE(exact) << "missed a C" << k << " in " << iterations << " iterations";
      }
    }
  }
}

TEST(ColorCoding, IterationFormula) {
  // k=3: success prob 3!/27 = 2/9; ln3 / (2/9) ≈ 4.94 → 5.
  EXPECT_EQ(color_coding_iterations(3, 1.0 / 3.0), 5u);
  EXPECT_GT(color_coding_iterations(7, 1.0 / 3.0), color_coding_iterations(5, 1.0 / 3.0));
}

TEST(ColorCoding, IterationsUsedReported) {
  const Graph g = graph::complete(8);
  const auto result = run_color_coding(g, 4, 100);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.repetitions, 100u);
  const std::uint64_t used = core::counter_value(kColorCoding, result.counters, "iterations_total");
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, 100u);
}

TEST(ColorCoding, RejectsBadK) {
  const Graph g = graph::complete(4);
  EXPECT_THROW((void)run_color_coding(g, 2, 0), util::CheckError);
}

}  // namespace
}  // namespace decycle::baselines
