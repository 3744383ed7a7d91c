/// Registry-wide oracle agreement: every registered detector — core
/// algorithms and baselines alike — is driven through the one unified
/// Detector interface and cross-checked against the exact DFS oracle on
/// instances where its behaviour is (near-)deterministic. This generalizes
/// the pairwise cross-tests: an algorithm added to the registry is pulled
/// into the agreement harness — and the reuse contract — automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "lab/scenario.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle {
namespace {

using core::Detector;
using core::DetectorOptions;
using core::DetectorRegistry;
using core::Verdict;

/// A k each detector supports (the general ones get 5, c4 gets 4, triangle
/// gets 3).
unsigned supported_k(const Detector& d) {
  return std::clamp(5u, d.capabilities().min_k, d.capabilities().max_k);
}

/// Options under which every registered detector detects C_k on the k-cycle
/// (near-)certainly: unlimited threshold budgets make the sweep exhaustive,
/// and 512 repetitions push the sampling testers' miss probability below
/// 1e-8 on these instances.
DetectorOptions certain_options(unsigned k) {
  DetectorOptions opt;
  opt.k = k;
  opt.epsilon = 0.2;
  opt.seed = 71;
  opt.repetitions = 512;
  opt.budget = core::threshold::BudgetSchedule::none();
  opt.max_tracked = 0;
  return opt;
}

TEST(DetectorRegistryCross, EveryDetectorRejectsTheKCycleWithAValidWitness) {
  for (const Detector* det : DetectorRegistry::builtin().detectors()) {
    const unsigned k = supported_k(*det);
    const graph::Graph g = graph::cycle(k);
    ASSERT_TRUE(graph::has_cycle(g, k));  // the oracle agrees this must fire
    const auto ids = graph::IdAssignment::identity(g.num_vertices());
    const Verdict v = det->run_fresh(g, ids, certain_options(k));
    EXPECT_FALSE(v.accepted) << det->name() << " missed C_" << k << " on the k-cycle";
    ASSERT_EQ(v.witness.size(), k) << det->name();
    EXPECT_TRUE(graph::validate_cycle(g, v.witness)) << det->name();
  }
}

TEST(DetectorRegistryCross, EveryDetectorAcceptsAcyclicAndHighGirthInstances) {
  util::Rng rng(0xD1CE);
  for (const Detector* det : DetectorRegistry::builtin().detectors()) {
    const unsigned k = supported_k(*det);
    const auto check_accepts = [&](const graph::Graph& g, const char* label) {
      ASSERT_FALSE(graph::has_cycle(g, k)) << label;
      const auto ids = graph::IdAssignment::identity(g.num_vertices());
      const Verdict v = det->run_fresh(g, ids, certain_options(k));
      EXPECT_TRUE(v.accepted) << det->name() << " fabricated a C_" << k << " on " << label;
      EXPECT_TRUE(v.witness.empty()) << det->name();
    };
    check_accepts(graph::path(12), "a path");
    check_accepts(graph::ck_free_instance(graph::CkFreeFamily::kHighGirth, k, 40, rng),
                  "a girth-(>k) instance");
  }
}

TEST(DetectorRegistryCross, EveryDetectorAcceptsEdgelessGraphs) {
  // No edges, no C_k: a 1-sided tester must accept, including the edge
  // checker, which has no target edge to draw.
  for (const Detector* det : DetectorRegistry::builtin().detectors()) {
    const unsigned k = supported_k(*det);
    for (const graph::Vertex n : {16u, 1u}) {
      const graph::Graph g = graph::Graph::from_edges(n, std::span<const graph::Edge>{});
      const auto ids = graph::IdAssignment::identity(n);
      const Verdict v = det->run_fresh(g, ids, certain_options(k));
      EXPECT_TRUE(v.accepted) << det->name() << " on " << n << " isolated vertices";
      EXPECT_TRUE(v.witness.empty()) << det->name();
    }
  }
}

TEST(DetectorRegistryCross, AgreementWithTheOracleOnRandomGraphs) {
  // On small random graphs with exhaustive settings, the deterministic
  // detectors must agree with the DFS oracle exactly, and the randomized
  // ones must stay one-sided (no rejection when the oracle says Ck-free)
  // while their witnesses are always validated.
  util::Rng rng(0xC1A0);
  for (int trial = 0; trial < 6; ++trial) {
    const graph::Graph g = graph::erdos_renyi_gnm(12, 18, rng);
    const auto ids = graph::IdAssignment::identity(g.num_vertices());
    for (const Detector* det : DetectorRegistry::builtin().detectors()) {
      const unsigned k = supported_k(*det);
      const bool exact = graph::has_cycle(g, k);
      DetectorOptions opt = certain_options(k);
      opt.seed = 911 + static_cast<std::uint64_t>(trial);
      const Verdict v = det->run_fresh(g, ids, opt);
      if (!exact) {
        EXPECT_TRUE(v.accepted) << det->name() << " broke 1-sidedness, trial=" << trial;
      } else if (std::string_view(det->name()) == "threshold" ||
                 std::string_view(det->name()) == "color_coding") {
        // Exhaustive sweep / ~512 colorings at k <= 5: agreement expected.
        EXPECT_FALSE(v.accepted) << det->name() << " missed, trial=" << trial;
      }
      if (!v.accepted) {
        EXPECT_TRUE(graph::validate_cycle(g, v.witness)) << det->name();
      }
    }
  }
}

TEST(DetectorRegistryCross, CliqueHCycleAgreesWithTheOracleOnEveryLabFamily) {
  // The Congested-Clique detector is exact on drop-free runs, so it must
  // agree with the DFS oracle on EVERY registered graph family — the same
  // instances the lab matrix sweeps — not just hand-picked topologies. New
  // families are pulled into this agreement harness automatically.
  const core::Detector& chc = DetectorRegistry::builtin().require("clique_hcycle");
  const auto families = lab::known_families();
  ASSERT_GE(families.size(), 16u);
  util::Rng rng(0xC11C);
  for (const lab::FamilyInfo& info : families) {
    // Find a (k, n) combination the family accepts (e.g. ckfree_bipartite
    // is odd-k only; some families have n floors).
    lab::ScenarioCell cell;
    cell.family = std::string(info.name);
    cell.epsilon = 0.15;
    bool found = false;
    // The small trailing candidates cover families whose n is not a vertex
    // count (hypercube's n is its dimension, capped at 20).
    for (const std::uint64_t n : {24u, 30u, 32u, 40u, 5u, 6u}) {
      for (const unsigned k : {5u, 4u, 3u, 7u}) {
        if (lab::validate_family(info.name, k, n).empty()) {
          cell.k = k;
          cell.n = n;
          found = true;
          break;
        }
      }
      if (found) break;
    }
    ASSERT_TRUE(found) << "no buildable (k, n) for family " << info.name;

    const lab::BuiltTopology topo = lab::build_topology(cell, rng);
    const bool oracle = graph::find_cycle(topo.graph, cell.k).has_value();
    if (topo.truth == lab::GroundTruth::kCkFree) {
      EXPECT_FALSE(oracle) << info.name;
    }
    if (topo.truth == lab::GroundTruth::kHasCk) {
      EXPECT_TRUE(oracle) << info.name;
    }

    DetectorOptions opt;
    opt.k = cell.k;
    opt.seed = 0xFA17 + cell.k;
    const auto ids = graph::IdAssignment::identity(topo.graph.num_vertices());
    const Verdict v = chc.run_fresh(topo.graph, ids, opt);
    EXPECT_EQ(!v.accepted, oracle) << "clique_hcycle disagreed with the oracle on "
                                   << info.name << " (k=" << cell.k << ", n=" << cell.n << ")";
    if (!v.accepted) {
      EXPECT_TRUE(graph::validate_cycle(topo.graph, v.witness)) << info.name;
    }
  }
}

TEST(DetectorRegistryCross, EdgeCheckerHonorsAnExplicitTargetEdge) {
  // The unified options carry the target edge; with it the checker is the
  // deterministic Phase-2 subroutine and must match the per-edge oracle.
  const core::Detector& checker = DetectorRegistry::builtin().require("edge_checker");
  util::Rng rng(0xED6E);
  const graph::Graph g = graph::erdos_renyi_gnm(12, 18, rng);
  const auto ids = graph::IdAssignment::identity(g.num_vertices());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    DetectorOptions opt;
    opt.k = 5;
    opt.edge = g.edge(e);
    const Verdict verdict = checker.run_fresh(g, ids, opt);
    EXPECT_EQ(!verdict.accepted, graph::has_cycle_through_edge(g, 5, u, v))
        << "edge " << u << "-" << v;
  }
}

/// The reuse contract every session cache relies on, registry-wide: a
/// detector's run() on a simulator that has just run every other detector
/// compatible with its model (other seeds, other k) equals run_fresh field
/// for field — verdict, witness, repetitions, flags, RunStats and counters.
/// Sessions carry no detector in their key, so the daemon and the lab hand
/// one detector's simulator to another all the time.
class ReuseContract : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

DetectorOptions reuse_options(const Detector& d, std::uint64_t seed, bool drops) {
  DetectorOptions opt;
  opt.k = supported_k(d);
  opt.seed = seed;
  opt.repetitions = 3;
  opt.budget = core::threshold::BudgetSchedule::constant(4);
  opt.max_tracked = 2;
  if (drops) {
    // A stateless ~20% coin per (round, from, to), as the drop contract asks.
    opt.drop = [seed](std::uint64_t round, graph::Vertex from, graph::Vertex to) {
      const std::uint64_t h = util::splitmix64(round * 1000003 + from * 1009 + to);
      return util::splitmix64(seed ^ h) % 5 == 0;
    };
  }
  return opt;
}

void expect_same_verdict(const Verdict& a, const Verdict& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejecting_nodes, b.rejecting_nodes);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.repetitions, b.repetitions);
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.max_bundle_sequences, b.max_bundle_sequences);
  EXPECT_EQ(a.stats.rounds_executed, b.stats.rounds_executed);
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.max_link_bits, b.stats.max_link_bits);
  EXPECT_EQ(a.stats.max_active_nodes, b.stats.max_active_nodes);
  EXPECT_EQ(a.stats.dropped_messages, b.stats.dropped_messages);
  EXPECT_EQ(a.stats.halted, b.stats.halted);
  EXPECT_EQ(a.counters, b.counters);
}

TEST_P(ReuseContract, RunOnAUsedSimulatorEqualsRunFresh) {
  const auto& [name, drops] = GetParam();
  const DetectorRegistry& registry = DetectorRegistry::builtin();
  const Detector& det = registry.require(name);
  const congest::CommModel& model = core::default_comm_model(det.capabilities());

  util::Rng rng(0x5E55);
  graph::PlantedOptions popt;
  popt.k = supported_k(det);
  popt.num_cycles = 4;
  popt.padding_leaves = 12;
  const graph::FarInstance inst = graph::planted_cycles_instance(popt, rng);
  const graph::IdAssignment ids = graph::IdAssignment::shuffled(inst.graph.num_vertices(), rng);

  congest::Simulator sim(inst.graph, ids, model);
  std::uint64_t other_seed = 100;
  for (const Detector* other : registry.detectors()) {
    if (other == &det || !core::supports_model(other->capabilities(), model.kind())) continue;
    (void)other->run(sim, reuse_options(*other, other_seed++, drops));
  }
  const DetectorOptions opt = reuse_options(det, 7, drops);
  const Verdict reused = det.run(sim, opt);
  const Verdict fresh = det.run_fresh(inst.graph, ids, opt);
  expect_same_verdict(reused, fresh);
  // And once more on the same simulator, now dirtied by this detector too.
  expect_same_verdict(det.run(sim, opt), fresh);
}

std::vector<std::string> builtin_names() {
  std::vector<std::string> out;
  for (const Detector* d : DetectorRegistry::builtin().detectors()) out.emplace_back(d->name());
  return out;
}

INSTANTIATE_TEST_SUITE_P(Registry, ReuseContract,
                         ::testing::Combine(::testing::ValuesIn(builtin_names()),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           return std::get<0>(info.param) +
                                  (std::get<1>(info.param) ? "_drops" : "_lossless");
                         });

}  // namespace
}  // namespace decycle
