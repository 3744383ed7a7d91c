/// Oracle cross-validation of the threshold detection family against the
/// exact DFS oracle and the FO17 tester, over the *entire* lab family
/// registry. With unlimited thresholds one sweep is an exhaustive parallel
/// edge scan, so its verdict must equal the oracle on every instance; with
/// finite thresholds completeness may drop but soundness (never reject a
/// Ck-free graph) must survive — the acceptance criterion of the lab's
/// algorithm axis.
#include <gtest/gtest.h>

#include <string>

#include "core/detector.hpp"
#include "graph/ids.hpp"
#include "graph/subgraph.hpp"
#include "lab/scenario.hpp"
#include "util/rng.hpp"

namespace decycle {
namespace {

constexpr unsigned kK = 5;

const core::Detector& kTester = core::DetectorRegistry::builtin().require("tester");
const core::Detector& kThreshold = core::DetectorRegistry::builtin().require("threshold");

/// A buildable size parameter per family, small enough that the exact DFS
/// oracle and a full FO17 run stay cheap.
std::uint64_t size_for(std::string_view family) {
  if (family == "hypercube") return 3;  // dimension -> 8 vertices
  if (family == "complete") return 8;
  if (family == "grid") return 4;  // 4x4
  if (family == "wheel") return 10;
  if (family == "noisy") return 2 * kK;
  if (family == "layered") return 6;
  if (family == "planted") return 20;
  return 14;
}

struct BuiltCase {
  lab::BuiltTopology topo;
  graph::IdAssignment ids;
};

BuiltCase build_case(std::string_view family) {
  lab::ScenarioCell cell;
  cell.family = std::string(family);
  cell.k = kK;
  cell.n = size_for(family);
  EXPECT_EQ(lab::validate_family(cell.family, cell.k, cell.n), "") << family;
  util::Rng rng(cell.cell_seed());
  BuiltCase out{lab::build_topology(cell, rng), {}};
  out.ids = graph::IdAssignment::identity(out.topo.graph.num_vertices());
  return out;
}

TEST(ThresholdCross, ExhaustiveRegimeMatchesOracleOnEveryRegistryFamily) {
  for (const lab::FamilyInfo& info : lab::known_families()) {
    const BuiltCase c = build_case(info.name);
    const bool exact = graph::has_cycle(c.topo.graph, kK);

    // Ground-truth labels must themselves agree with the oracle.
    if (c.topo.truth == lab::GroundTruth::kCkFree) {
      EXPECT_FALSE(exact) << info.name;
    }
    if (c.topo.truth == lab::GroundTruth::kHasCk || c.topo.truth == lab::GroundTruth::kFar) {
      EXPECT_TRUE(exact) << info.name;
    }

    core::DetectorOptions topt;
    topt.k = kK;
    topt.seed = 17;
    topt.budget = core::threshold::BudgetSchedule::none();
    topt.max_tracked = 0;
    const auto tv = kThreshold.run_fresh(c.topo.graph, c.ids, topt);
    EXPECT_EQ(!tv.accepted, exact) << "family=" << info.name;
    if (!tv.accepted) {
      EXPECT_EQ(tv.witness.size(), kK) << info.name;  // validated witness
    }
    EXPECT_FALSE(tv.truncated) << info.name;
  }
}

TEST(ThresholdCross, AgreesWithFo17TesterSoundness) {
  for (const lab::FamilyInfo& info : lab::known_families()) {
    const BuiltCase c = build_case(info.name);

    core::DetectorOptions fopt;
    fopt.k = kK;
    fopt.epsilon = 0.125;
    fopt.seed = 23;
    const core::Verdict fo = kTester.run_fresh(c.topo.graph, c.ids, fopt);

    core::DetectorOptions topt;
    topt.k = kK;
    topt.seed = 23;
    topt.budget = core::threshold::BudgetSchedule::none();
    topt.max_tracked = 0;
    const auto tv = kThreshold.run_fresh(c.topo.graph, c.ids, topt);

    // Neither algorithm may reject a provably Ck-free instance...
    if (c.topo.truth == lab::GroundTruth::kCkFree) {
      EXPECT_TRUE(fo.accepted) << info.name;
      EXPECT_TRUE(tv.accepted) << info.name;
    }
    // ...and whenever the amplified tester finds a cycle (its witness is
    // validated, so one exists), the exhaustive threshold sweep must too.
    if (!fo.accepted) {
      EXPECT_FALSE(tv.accepted) << "family=" << info.name;
    }
  }
}

TEST(ThresholdCross, FiniteThresholdsNeverRejectCkFreeFamilies) {
  for (const lab::FamilyInfo& info : lab::known_families()) {
    const BuiltCase c = build_case(info.name);
    if (c.topo.truth != lab::GroundTruth::kCkFree) continue;
    core::DetectorOptions topt;
    topt.k = kK;
    topt.budget = core::threshold::BudgetSchedule::parse("2");
    topt.max_tracked = 2;
    topt.repetitions = 2;  // sweeps
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      topt.seed = seed;
      const auto tv = kThreshold.run_fresh(c.topo.graph, c.ids, topt);
      EXPECT_TRUE(tv.accepted) << "family=" << info.name << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace decycle
