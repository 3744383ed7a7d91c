/// Fault-injection tests: the tester under message loss.
///
/// The 1-sided error argument only uses that every received sequence is a
/// real path trace (Lemma 1), which message LOSS cannot break — dropping
/// mail can only suppress detections. These tests make the simulator's drop
/// adversary exercise that: no false rejection may ever appear, at any drop
/// rate, while detection degrades gracefully.
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::core {
namespace {

using graph::Graph;
using graph::IdAssignment;

const Detector& kTester = DetectorRegistry::builtin().require("tester");
const Detector& kChecker = DetectorRegistry::builtin().require("edge_checker");

congest::Simulator::DropFilter random_drops(double rate, std::uint64_t seed) {
  // Stateless per-(round, from, to) coin so the filter is deterministic and
  // thread-safe.
  return [rate, seed](std::uint64_t round, graph::Vertex from, graph::Vertex to) {
    std::uint64_t h = util::splitmix64(seed ^ util::splitmix64(round));
    h = util::splitmix64(h ^ from);
    h = util::splitmix64(h ^ to);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
  };
}

TEST(Faults, SoundnessSurvivesAnyDropRate) {
  // Ck-free graphs stay accepted under 0%..90% loss (witness validation
  // would throw on any fabricated cycle).
  util::Rng rng(1);
  for (const unsigned k : {4u, 5u, 6u}) {
    const Graph g = graph::ck_free_instance(graph::CkFreeFamily::kHighGirth, k, 40, rng);
    const IdAssignment ids = IdAssignment::identity(g.num_vertices());
    for (const double rate : {0.1, 0.5, 0.9}) {
      DetectorOptions opt;
      opt.k = k;
      opt.repetitions = 5;
      opt.seed = 3;
      opt.drop = random_drops(rate, 77);
      const auto verdict = kTester.run_fresh(g, ids, opt);
      EXPECT_TRUE(verdict.accepted) << "k=" << k << " rate=" << rate;
    }
  }
}

TEST(Faults, RejectionsUnderLossAreStillGenuine) {
  // On cyclic graphs with loss, any rejection that does occur must carry a
  // real cycle — validated internally, asserted again here.
  const Graph g = graph::complete(9);
  const IdAssignment ids = IdAssignment::identity(9);
  for (const double rate : {0.05, 0.2, 0.4}) {
    DetectorOptions opt;
    opt.k = 5;
    opt.repetitions = 4;
    opt.seed = 11;
    opt.drop = random_drops(rate, 99);
    const auto verdict = kTester.run_fresh(g, ids, opt);
    if (!verdict.accepted) {
      EXPECT_TRUE(graph::validate_cycle(g, verdict.witness)) << "rate=" << rate;
    }
  }
}

TEST(Faults, DetectionDegradesMonotonicallyOnAverage) {
  // Not a strict per-seed monotonicity (drops are random), but at the
  // extremes the behaviour is forced: 0% loss detects the pure cycle, 100%
  // loss cannot detect anything.
  const Graph g = graph::cycle(6);
  const IdAssignment ids = IdAssignment::identity(6);

  DetectorOptions clean;
  clean.k = 6;
  clean.repetitions = 1;
  clean.seed = 5;
  EXPECT_FALSE(kTester.run_fresh(g, ids, clean).accepted);

  DetectorOptions dead = clean;
  dead.drop = [](std::uint64_t, graph::Vertex, graph::Vertex) { return true; };
  const auto verdict = kTester.run_fresh(g, ids, dead);
  EXPECT_TRUE(verdict.accepted);
  EXPECT_GT(verdict.stats.dropped_messages, 0u);
}

TEST(Faults, DropCounterTallies) {
  const Graph g = graph::cycle(5);
  const IdAssignment ids = IdAssignment::identity(5);
  DetectorOptions opt;
  opt.k = 5;
  opt.edge = graph::Edge{0, 1};
  std::size_t filter_calls_dropped = 0;
  opt.drop = [&](std::uint64_t, graph::Vertex from, graph::Vertex) {
    if (from == 2) {
      ++filter_calls_dropped;
      return true;
    }
    return false;
  };
  const auto result = kChecker.run_fresh(g, ids, opt);
  EXPECT_EQ(result.stats.dropped_messages, filter_calls_dropped);
  EXPECT_GT(result.stats.dropped_messages, 0u);
}

TEST(Faults, TargetedDropSuppressesTheOnlyWitnessPath) {
  // Cutting every message out of one antipodal node of a pure C6 kills the
  // only detection route for edge (0,1)... unless the other direction still
  // pairs up; cut both candidates to be sure.
  const Graph g = graph::cycle(6);
  const IdAssignment ids = IdAssignment::identity(6);
  DetectorOptions opt;
  opt.k = 6;
  opt.edge = graph::Edge{0, 1};
  opt.drop = [](std::uint64_t, graph::Vertex from, graph::Vertex) {
    return from == 3 || from == 4;  // sever the far side both ways
  };
  EXPECT_TRUE(kChecker.run_fresh(g, ids, opt).accepted);
  // Sanity: without drops the same edge detects.
  opt.drop = nullptr;
  EXPECT_FALSE(kChecker.run_fresh(g, ids, opt).accepted);
}

}  // namespace
}  // namespace decycle::core
