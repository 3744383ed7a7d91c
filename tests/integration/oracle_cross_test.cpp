/// Mutual validation of the three independent cycle-detection
/// implementations: exact DFS oracle, centralized color coding, and the
/// distributed checker. Any disagreement indicts exactly one of them —
/// triangulation the individual unit tests cannot provide.
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/scan.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle {
namespace {

using graph::Graph;

TEST(OracleCross, ThreeWayAgreementOnRandomGraphs) {
  util::Rng rng(0xC105);
  for (int trial = 0; trial < 12; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(13, 20, rng);
    for (const unsigned k : {4u, 5u, 6u}) {
      const bool exact = graph::has_cycle(g, k);

      core::ScanOptions sopt;
      sopt.detect.k = k;
      const bool distributed =
          core::exhaustive_ck_scan(g, graph::IdAssignment::identity(g.num_vertices()), sopt)
              .found;
      EXPECT_EQ(distributed, exact) << "trial=" << trial << " k=" << k;

      core::DetectorOptions copt;
      copt.k = k;
      copt.repetitions = exact ? 600 : 40;
      copt.seed = 17 * static_cast<std::uint64_t>(trial) + k;
      const core::Verdict cc =
          core::DetectorRegistry::builtin().require("color_coding").run_fresh(
              g, graph::IdAssignment::identity(g.num_vertices()), copt);
      if (exact) {
        EXPECT_FALSE(cc.accepted) << "color coding missed (p_fail < 1e-4): trial=" << trial
                                  << " k=" << k;
      } else {
        EXPECT_TRUE(cc.accepted) << "color coding fabricated a cycle";
      }
    }
  }
}

TEST(OracleCross, CountConsistentWithDetection) {
  util::Rng rng(0xC106);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(12, 19, rng);
    for (unsigned k = 3; k <= 7; ++k) {
      EXPECT_EQ(graph::count_cycles(g, k) > 0, graph::has_cycle(g, k))
          << "trial=" << trial << " k=" << k;
    }
  }
}

TEST(OracleCross, GirthConsistentWithCensusOracles) {
  util::Rng rng(0xC107);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::erdos_renyi_gnm(14, 22, rng);
    const auto gg = graph::girth(g);
    if (!gg.has_value()) continue;
    EXPECT_TRUE(graph::has_cycle(g, *gg));
    for (unsigned k = 3; k < *gg; ++k) {
      EXPECT_FALSE(graph::has_cycle(g, k)) << "cycle below girth, trial=" << trial;
    }
    // The shortest cycle is always induced (a chord would shorten it).
    EXPECT_TRUE(graph::has_induced_cycle(g, *gg));
  }
}

}  // namespace
}  // namespace decycle
