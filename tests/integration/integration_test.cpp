/// End-to-end scenarios crossing all module boundaries: generators →
/// simulator → tester → witness validation → packing certificates, at sizes
/// larger than the per-module unit tests use.
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/packing.hpp"
#include "graph/subgraph.hpp"
#include "harness/estimator.hpp"
#include "util/rng.hpp"

namespace decycle {
namespace {

using graph::Graph;
using graph::IdAssignment;

const core::Detector& kTester = core::DetectorRegistry::builtin().require("tester");

TEST(Integration, FullTesterPipelineOnNoisyFarInstance) {
  util::Rng rng(1);
  graph::NoisyFarOptions nopt;
  nopt.k = 5;
  nopt.num_cycles = 10;
  nopt.background_n = 150;
  nopt.background_m = 260;
  const auto inst = graph::noisy_far_instance(nopt, rng);

  // The packing certifier independently confirms farness.
  const auto packing = graph::greedy_cycle_packing(inst.graph, 5);
  EXPECT_GE(packing.size(), inst.planted.size());

  const IdAssignment ids = IdAssignment::random_quadratic(inst.graph.num_vertices(), rng);
  core::DetectorOptions topt;
  topt.k = 5;
  topt.epsilon = inst.certified_epsilon();
  topt.seed = 77;
  const auto verdict = kTester.run_fresh(inst.graph, ids, topt);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));

  // The distributed witness is corroborated by the centralized baseline.
  core::DetectorOptions copt;
  copt.k = 5;
  copt.repetitions = 300;
  EXPECT_FALSE(core::DetectorRegistry::builtin()
                   .require("color_coding")
                   .run_fresh(inst.graph, ids, copt)
                   .accepted);
}

TEST(Integration, DetectionRateClearsTwoThirdsOnFarInstance) {
  // Theorem 1's completeness at the prescribed repetition count, measured
  // over independent trials with the estimator (small instance, k = 4).
  util::Rng rng(2);
  graph::PlantedOptions popt;
  popt.k = 4;
  popt.num_cycles = 4;
  popt.padding_leaves = 30;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const double eps = inst.certified_epsilon();
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());

  util::ThreadPool pool(4);
  const auto estimate = harness::estimate_rate(
      [&](std::size_t, std::uint64_t seed) {
        core::DetectorOptions topt;
        topt.k = 4;
        topt.epsilon = eps;
        topt.seed = seed;
        return !kTester.run_fresh(inst.graph, ids, topt).accepted;
      },
      60, 123, &pool);
  EXPECT_GE(estimate.interval.high, 2.0 / 3.0);
  EXPECT_GT(estimate.rate(), 2.0 / 3.0);
}

TEST(Integration, SoundnessSweepAcrossFamiliesAndIds) {
  util::Rng rng(3);
  for (const unsigned k : {4u, 5u, 6u}) {
    for (const auto family : graph::ck_free_families_for(k)) {
      const Graph g = graph::ck_free_instance(family, k, 40, rng);
      for (int idmode = 0; idmode < 2; ++idmode) {
        const IdAssignment ids = idmode == 0
                                     ? IdAssignment::identity(g.num_vertices())
                                     : IdAssignment::shuffled(g.num_vertices(), rng);
        core::DetectorOptions topt;
        topt.k = k;
        topt.repetitions = 5;
        topt.seed = 17 * k + static_cast<std::uint64_t>(idmode);
        const auto verdict = kTester.run_fresh(g, ids, topt);
        EXPECT_TRUE(verdict.accepted)
            << graph::family_name(family) << " k=" << k << " idmode=" << idmode;
      }
    }
  }
}

TEST(Integration, LayeredHardInstanceDetectedDespiteDensity) {
  util::Rng rng(4);
  const auto inst = graph::layered_instance(5, 13, 4, rng);
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());
  core::DetectorOptions topt;
  topt.k = 5;
  topt.repetitions = 8;  // every edge lies on a planted C5: one hit suffices
  topt.seed = 5;
  const auto verdict = kTester.run_fresh(inst.graph, ids, topt);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));
  EXPECT_FALSE(verdict.overflow);
}

TEST(Integration, LargerSparseGraphRunsFast) {
  // 5000 nodes, 3 repetitions: exercises the event-driven active sets.
  util::Rng rng(6);
  const Graph g = graph::random_connected(5000, 6000, rng);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  core::DetectorOptions topt;
  topt.k = 5;
  topt.repetitions = 3;
  topt.seed = 9;
  const auto verdict = kTester.run_fresh(g, ids, topt);
  // Whatever the verdict, it must be internally consistent and validated.
  if (!verdict.accepted) {
    EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
  }
  EXPECT_LE(verdict.stats.rounds_executed, 3u * (5 / 2 + 2) + 1);
}

}  // namespace
}  // namespace decycle
