/// \file clique_hcycle_test.cpp
/// \brief Congested-Clique adaptive h-cycle detector: exactness against the
/// DFS oracle, witness validity, early-exit instrumentation, one-sidedness
/// under drops, and the loud model-mismatch guard.
#include "baselines/clique_hcycle.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {
namespace {

using core::DetectorOptions;
using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

const core::Detector& kDetector = core::DetectorRegistry::builtin().require("clique_hcycle");

/// The named adaptivity counter of \p v.
std::uint64_t counter(const core::Verdict& v, std::string_view name) {
  return core::counter_value(kDetector, v.counters, name);
}

TEST(CliqueHCycle, RejectsCkWithValidatedWitness) {
  for (unsigned k = 3; k <= 8; ++k) {
    const Graph g = graph::cycle(k);
    const IdAssignment ids = IdAssignment::identity(k);
    DetectorOptions opt;
    opt.k = k;
    const auto v = kDetector.run_fresh(g, ids, opt);
    EXPECT_FALSE(v.accepted) << "k=" << k;
    ASSERT_EQ(v.witness.size(), k) << "k=" << k;
    EXPECT_TRUE(graph::validate_cycle(g, v.witness)) << "k=" << k;
    EXPECT_EQ(v.rejecting_nodes, k) << "everyone hears the witness broadcast";
    EXPECT_TRUE(v.stats.halted);
  }
}

TEST(CliqueHCycle, AcceptsAcyclicAndShortCycleInputs) {
  DetectorOptions opt;
  opt.k = 5;
  {
    const Graph g = graph::path(17);
    const auto v = kDetector.run_fresh(g, IdAssignment::identity(17), opt);
    EXPECT_TRUE(v.accepted);
    EXPECT_TRUE(v.witness.empty());
    EXPECT_EQ(v.rejecting_nodes, 0u);
    EXPECT_EQ(counter(v, "early_exit_trials"), 0u);
    // Accept = the full graph was searched.
    EXPECT_EQ(counter(v, "sampled_vertices_total"), 17u);
  }
  {
    // A C4 is not a C5: exactness is for the target length, not "any cycle".
    const Graph g = graph::cycle(4);
    EXPECT_TRUE(kDetector.run_fresh(g, IdAssignment::identity(4), opt).accepted);
  }
}

TEST(CliqueHCycle, AgreesWithDfsOracleOnRandomGraphs) {
  util::Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = graph::erdos_renyi_gnp(32, 0.08, rng);
    const IdAssignment ids = IdAssignment::identity(32);
    DetectorOptions opt;
    opt.k = 5;
    opt.seed = 1000 + static_cast<std::uint64_t>(trial);
    const auto v = kDetector.run_fresh(g, ids, opt);
    const bool has_c5 = graph::find_cycle(g, 5).has_value();
    EXPECT_EQ(v.accepted, !has_c5) << "trial " << trial;
    if (!v.accepted) {
      EXPECT_TRUE(graph::validate_cycle(g, v.witness)) << "trial " << trial;
    }
  }
}

TEST(CliqueHCycle, CycleRichInputsExitEarlyWithFewerSampledVertices) {
  // Dense-in-cycles: K_40 contains C_5 copies everywhere, so the very first
  // sample already induces one; the schedule exits phases early.
  const Graph rich = graph::complete(40);
  const IdAssignment ids = IdAssignment::identity(40);
  DetectorOptions opt;
  opt.k = 5;
  const auto fast = kDetector.run_fresh(rich, ids, opt);
  EXPECT_FALSE(fast.accepted);
  EXPECT_EQ(counter(fast, "early_exit_trials"), 1u);
  EXPECT_GT(counter(fast, "rounds_saved_total"), 0u);
  EXPECT_LT(counter(fast, "sampled_vertices_total"), 40u);
  // s0 = 8 vertices of K_40 already hold a C_5.
  EXPECT_EQ(counter(fast, "phases_total"), 1u);

  // Cycle-free input: the schedule must run to the full graph.
  const Graph poor = graph::star(40);
  const auto slow = kDetector.run_fresh(poor, IdAssignment::identity(40), opt);
  EXPECT_TRUE(slow.accepted);
  EXPECT_EQ(counter(slow, "early_exit_trials"), 0u);
  EXPECT_EQ(counter(slow, "rounds_saved_total"), 0u);
  EXPECT_EQ(counter(slow, "sampled_vertices_total"), 40u);
  EXPECT_GT(counter(slow, "phases_total"), counter(fast, "phases_total"));
  EXPECT_GT(slow.stats.rounds_executed, fast.stats.rounds_executed);
}

TEST(CliqueHCycle, DropsLoseDetectionsButNeverFabricate) {
  // Drop EVERY row report: the collector sees an empty subgraph forever and
  // must accept (a lost detection), never invent a witness.
  const Graph g = graph::cycle(6);
  const IdAssignment ids = IdAssignment::identity(6);
  DetectorOptions opt;
  opt.k = 6;
  opt.drop = [](std::uint64_t, Vertex from, Vertex to) { return to == 0 && from != 0; };
  const auto v = kDetector.run_fresh(g, ids, opt);
  EXPECT_TRUE(v.accepted);
  EXPECT_TRUE(v.witness.empty());
  EXPECT_TRUE(v.stats.halted) << "collector self-wakeups must keep the schedule alive";

  // Acyclic input under arbitrary drops: still accepts (1-sided).
  const Graph tree = graph::star(12);
  opt.drop = [](std::uint64_t r, Vertex, Vertex) { return r % 2 == 0; };
  EXPECT_TRUE(kDetector.run_fresh(tree, IdAssignment::identity(12), opt).accepted);
}

TEST(CliqueHCycle, ThrowsLoudlyOnANonCliqueSimulator) {
  const Graph g = graph::cycle(5);
  const IdAssignment ids = IdAssignment::identity(5);
  congest::Simulator congest_sim(g, ids, congest::CommModel::congest());
  DetectorOptions opt;
  opt.k = 5;
  try {
    (void)kDetector.run(congest_sim, opt);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("congest"), std::string::npos) << msg;
    EXPECT_NE(msg.find("CommModel::clique()"), std::string::npos) << msg;
  }
}

TEST(CliqueHCycle, TinyGraphsAndEdgeCases) {
  DetectorOptions opt;
  opt.k = 3;
  {
    const Graph g = Graph::from_edges(1, {});
    const auto v = kDetector.run_fresh(g, IdAssignment::identity(1), opt);
    EXPECT_TRUE(v.accepted);
  }
  {
    const Graph g = Graph::from_edges(0, {});
    EXPECT_TRUE(kDetector.run_fresh(g, IdAssignment::identity(0), opt).accepted);
  }
  {
    const Graph g = graph::complete(3);
    const auto v = kDetector.run_fresh(g, IdAssignment::identity(3), opt);
    EXPECT_FALSE(v.accepted);
    EXPECT_TRUE(graph::validate_cycle(g, v.witness));
  }
}

}  // namespace
}  // namespace decycle::baselines
