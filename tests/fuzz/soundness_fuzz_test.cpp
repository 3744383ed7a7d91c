/// Randomized cross-configuration fuzzing of the paper's central guarantees.
///
/// For a few hundred random (graph, k, ID assignment, pruning mode, fault)
/// configurations, two invariants must hold without exception:
///
///   1. one-sidedness — whenever the tester or the single-edge checker
///      reports a cycle, the exact oracle confirms one (and the witness
///      itself validates, which the library enforces internally);
///   2. single-edge exactness in the fault-free representative mode — the
///      checker's verdict equals the oracle's on every probed edge.
///
/// This deliberately runs configurations the targeted unit tests do not
/// enumerate (odd combinations of modes, drops, shuffled IDs).
#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle {
namespace {

using graph::Graph;
using graph::IdAssignment;

const core::Detector& kTester = core::DetectorRegistry::builtin().require("tester");

Graph random_instance(util::Rng& rng) {
  const auto shape = rng.next_below(5);
  const auto n = static_cast<graph::Vertex>(8 + rng.next_below(10));
  switch (shape) {
    case 0: return graph::erdos_renyi_gnm(n, n + rng.next_below(2 * n), rng);
    case 1: return graph::random_connected(n, n - 1 + rng.next_below(n), rng);
    case 2: return graph::random_bipartite(n / 2, n - n / 2,
                                           std::min<std::size_t>(2 * n, (n / 2) * (n - n / 2)),
                                           rng);
    case 3: return graph::random_regular(n + (n % 2), 4, rng);
    default: return graph::random_tree(n, rng);
  }
}

IdAssignment random_ids(const Graph& g, util::Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return IdAssignment::identity(g.num_vertices());
    case 1: return IdAssignment::shuffled(g.num_vertices(), rng);
    default: return IdAssignment::random_quadratic(g.num_vertices(), rng);
  }
}

TEST(SoundnessFuzz, TesterNeverFabricatesCycles) {
  util::Rng rng(0xF002);
  for (int trial = 0; trial < 150; ++trial) {
    const Graph g = random_instance(rng);
    const IdAssignment ids = random_ids(g, rng);
    const auto k = static_cast<unsigned>(3 + rng.next_below(6));

    core::DetectorOptions opt;
    opt.k = k;
    opt.repetitions = 1 + rng.next_below(4);
    opt.seed = rng();
    opt.pruning =
        rng.next_bool(0.2) ? core::PruningMode::kNaive : core::PruningMode::kRepresentative;
    opt.fake_ids = !rng.next_bool(0.2);
    if (rng.next_bool(0.3)) {
      const std::uint64_t drop_seed = rng();
      opt.drop = [drop_seed](std::uint64_t round, graph::Vertex from, graph::Vertex to) {
        std::uint64_t h = util::splitmix64(drop_seed ^ util::splitmix64(round));
        h = util::splitmix64(h ^ from);
        h = util::splitmix64(h ^ to);
        return (h & 7) == 0;  // 12.5% loss
      };
    }
    // Every witness is validated: a fabricated cycle would throw.
    const auto verdict = kTester.run_fresh(g, ids, opt);
    if (!verdict.accepted) {
      EXPECT_TRUE(graph::has_cycle(g, k))
          << "trial=" << trial << " k=" << k << ": tester rejected a Ck-free graph";
    }
  }
}

TEST(SoundnessFuzz, EdgeCheckerExactInRepresentativeMode) {
  util::Rng rng(0xF003);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_instance(rng);
    if (g.num_edges() == 0) continue;
    const IdAssignment ids = random_ids(g, rng);
    const auto k = static_cast<unsigned>(3 + rng.next_below(5));
    // Probe a handful of random edges per instance.
    for (int probe = 0; probe < 5; ++probe) {
      const auto e = g.edge(static_cast<graph::EdgeId>(rng.next_below(g.num_edges())));
      core::DetectorOptions opt;
      opt.k = k;
      opt.edge = e;
      const auto result =
          core::DetectorRegistry::builtin().require("edge_checker").run_fresh(g, ids, opt);
      EXPECT_EQ(!result.accepted, graph::has_cycle_through_edge(g, k, e.first, e.second))
          << "trial=" << trial << " k=" << k << " edge=(" << e.first << "," << e.second << ")";
    }
  }
}

/// The shared witness-validation check every detector's rejection must pass:
/// a genuine C_k witness (right length, a real cycle of g) and an oracle
/// that agrees a C_k exists. One definition for all six algorithms.
void expect_sound_rejection(const graph::Graph& g, unsigned k, const core::Verdict& verdict,
                            std::string_view detector, int trial) {
  EXPECT_EQ(verdict.witness.size(), k)
      << detector << " trial=" << trial << ": rejection witness has the wrong length";
  EXPECT_TRUE(graph::validate_cycle(g, verdict.witness))
      << detector << " trial=" << trial << ": rejection witness is not a cycle of g";
  EXPECT_TRUE(graph::has_cycle(g, k))
      << detector << " trial=" << trial << ": rejected a Ck-free graph";
}

TEST(SoundnessFuzz, RegistryDetectorsNeverFabricateCycles) {
  // Every registered algorithm — the FO17 tester, the single-edge checker,
  // the threshold family, both specialized baselines, and the centralized
  // reference — through the same random (graph, ids, k, drops) stream and
  // the same witness-validation check. The registry makes this a loop over
  // detectors instead of six hand-rolled harnesses (this file predates it).
  const core::DetectorRegistry& registry = core::DetectorRegistry::builtin();
  util::Rng rng(0xF005);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_instance(rng);
    const IdAssignment ids = random_ids(g, rng);
    const auto k = static_cast<unsigned>(3 + rng.next_below(6));

    core::DetectorOptions opt;
    opt.k = k;
    opt.epsilon = 0.25;
    opt.repetitions = 1 + rng.next_below(4);
    opt.seed = rng();
    if (rng.next_bool(0.3)) {
      const std::uint64_t drop_seed = rng();
      opt.drop = [drop_seed](std::uint64_t round, graph::Vertex from, graph::Vertex to) {
        std::uint64_t h = util::splitmix64(drop_seed ^ util::splitmix64(round));
        h = util::splitmix64(h ^ from);
        h = util::splitmix64(h ^ to);
        return (h & 7) == 0;  // 12.5% loss
      };
    }

    for (const core::Detector* detector : registry.detectors()) {
      const core::DetectorCapabilities& caps = detector->capabilities();
      if (k < caps.min_k || k > caps.max_k) continue;
      if (caps.draws_edge && g.num_edges() == 0) continue;
      const core::Verdict verdict = detector->run_fresh(g, ids, opt);
      if (!verdict.accepted) {
        expect_sound_rejection(g, k, verdict, detector->name(), trial);
      }
    }
  }
}

TEST(SoundnessFuzz, AblationsOnlyLoseDetections) {
  // fake_ids=off and message drops may only flip reject->accept relative to
  // the pristine run, never accept->reject (on the same seed).
  util::Rng rng(0xF004);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_instance(rng);
    const IdAssignment ids = IdAssignment::identity(g.num_vertices());
    const auto k = static_cast<unsigned>(3 + rng.next_below(5));
    core::DetectorOptions pristine;
    pristine.k = k;
    pristine.repetitions = 2;
    pristine.seed = 42 + static_cast<std::uint64_t>(trial);
    const bool pristine_rejects = !kTester.run_fresh(g, ids, pristine).accepted;

    core::DetectorOptions degraded = pristine;
    degraded.fake_ids = false;
    const bool degraded_rejects = !kTester.run_fresh(g, ids, degraded).accepted;
    if (degraded_rejects) {
      EXPECT_TRUE(pristine_rejects || graph::has_cycle(g, k)) << "trial=" << trial;
      // (Either way the rejection must be genuine; has_cycle re-checks.)
      EXPECT_TRUE(graph::has_cycle(g, k));
    }
  }
}

}  // namespace
}  // namespace decycle
