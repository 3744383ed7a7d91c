#include "soak/differential.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "fault_injection.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "soak/space.hpp"
#include "util/check.hpp"

namespace decycle::soak {
namespace {

SoakScenario exact_scenario(unsigned k) {
  SoakScenario s;
  s.k = k;
  s.epsilon = 0.25;
  s.repetitions = 2;
  s.budget = core::threshold::BudgetSchedule::none();
  s.track = 0;
  s.seed = 1234;
  return s;
}

TEST(Differential, CkFreeInstancePassesCleanly) {
  // A path has no cycles: every detector must accept, no mismatches.
  const graph::Graph g = graph::path(12);
  const DifferentialReport report = run_differential(g, exact_scenario(5));
  EXPECT_FALSE(report.oracle.has_ck);
  EXPECT_TRUE(report.mismatches.empty());
  for (const DetectorOutcome& d : report.outcomes) {
    if (!d.ran) continue;
    EXPECT_FALSE(d.rejected) << d.detector->name();
    EXPECT_EQ(d.mismatch, MismatchKind::kNone) << d.detector->name();
  }
}

TEST(Differential, ExactRegimeDetectorsFindThePlantedCycle) {
  // C_k itself, exact regime (no drops, unlimited budget): the single-edge
  // checker and the threshold sweep must both reject — and the differential
  // must classify those rejections as consistent, not mismatches.
  const graph::Graph g = graph::cycle(6);
  const DifferentialReport report = run_differential(g, exact_scenario(6));
  EXPECT_TRUE(report.oracle.has_ck);
  EXPECT_TRUE(report.oracle.probe_has_ck);  // every edge lies on the cycle
  EXPECT_TRUE(report.mismatches.empty());
  bool exact_seen = false;
  for (const DetectorOutcome& d : report.outcomes) {
    if (!d.ran || !d.exact_regime) continue;
    exact_seen = true;
    EXPECT_TRUE(d.rejected) << d.detector->name();
  }
  EXPECT_TRUE(exact_seen);
}

TEST(Differential, GatesDetectorsByCapability) {
  const graph::Graph g = graph::cycle(8);
  const DifferentialReport report = run_differential(g, exact_scenario(8));
  for (const DetectorOutcome& d : report.outcomes) {
    const core::DetectorCapabilities& caps = d.detector->capabilities();
    EXPECT_EQ(d.ran, 8u >= caps.min_k && 8u <= caps.max_k) << d.detector->name();
  }
}

TEST(Differential, PlantedUnsoundRejectionIsFlagged) {
  // C_6 is C_5-free, but it IS a cycle — the planted fault rejects it
  // without a witness. That must surface as kUnsound, not crash the run.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::FaultyRejector>());
  const graph::Graph g = graph::cycle(6);
  const DifferentialReport report = run_differential(g, exact_scenario(5), registry);
  EXPECT_FALSE(report.oracle.has_ck);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].mismatch, MismatchKind::kUnsound);
  EXPECT_NE(report.outcomes[0].detail.find("witness"), std::string::npos)
      << report.outcomes[0].detail;
  EXPECT_EQ(report.mismatches.size(), 1u);
}

TEST(Differential, PlantedMissedCycleIsFlagged) {
  // The sleepy acceptor advertises threshold knobs; in the unlimited
  // drop-free regime its accept on a cyclic instance contradicts the oracle.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::SleepyAcceptor>());
  const graph::Graph g = graph::cycle(6);
  const DifferentialReport report = run_differential(g, exact_scenario(6), registry);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].exact_regime);
  EXPECT_EQ(report.outcomes[0].mismatch, MismatchKind::kMissedCycle);

  // Outside the exact regime (a capped budget) the same accept is a
  // legitimate probabilistic miss — no mismatch.
  SoakScenario capped = exact_scenario(6);
  capped.budget = core::threshold::BudgetSchedule::constant(4);
  capped.track = 2;
  const DifferentialReport lenient = run_differential(g, capped, registry);
  EXPECT_EQ(lenient.outcomes[0].mismatch, MismatchKind::kNone);
  EXPECT_FALSE(lenient.outcomes[0].exact_regime);
}

TEST(Differential, CliqueDetectorJoinsViaItsDefaultModelAndIsExact) {
  // clique_hcycle cannot run on the congest simulator the campaign builds;
  // run_differential hands it a clique-model simulator instead, and its
  // drop-free runs are pinned to the oracle (exact_when_lossless).
  const auto find_chc = [](const DifferentialReport& report) -> const DetectorOutcome* {
    for (const DetectorOutcome& d : report.outcomes) {
      if (d.detector->name() == "clique_hcycle") return &d;
    }
    return nullptr;
  };
  {
    const graph::Graph g = graph::cycle(6);
    const DifferentialReport report = run_differential(g, exact_scenario(6));
    const DetectorOutcome* chc = find_chc(report);
    ASSERT_NE(chc, nullptr);
    EXPECT_TRUE(chc->ran);
    EXPECT_TRUE(chc->exact_regime);
    EXPECT_TRUE(chc->rejected);
    EXPECT_EQ(chc->mismatch, MismatchKind::kNone);
  }
  {
    const graph::Graph g = graph::path(12);
    const DifferentialReport report = run_differential(g, exact_scenario(5));
    const DetectorOutcome* chc = find_chc(report);
    ASSERT_NE(chc, nullptr);
    EXPECT_TRUE(chc->ran);
    EXPECT_FALSE(chc->rejected);
  }
  {
    // Under a lossy adversary a miss is a legitimate outcome, never a
    // mismatch: the exact pin only holds drop-free.
    SoakScenario lossy = exact_scenario(6);
    lossy.adversary = lab::parse_adversary("uniform:0.5");
    const graph::Graph g = graph::cycle(6);
    const DifferentialReport report = run_differential(g, lossy);
    const DetectorOutcome* chc = find_chc(report);
    ASSERT_NE(chc, nullptr);
    EXPECT_TRUE(chc->ran);
    EXPECT_FALSE(chc->exact_regime);
    EXPECT_EQ(chc->mismatch, MismatchKind::kNone);
  }
}

TEST(Differential, CheckDetectorAgreesWithTheFullReport) {
  const graph::Graph g = graph::cycle(6);
  const SoakScenario s = exact_scenario(5);
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::FaultyRejector>());
  const DifferentialReport report = run_differential(g, s, registry);
  std::string detail;
  EXPECT_EQ(check_detector(g, s, registry.require("faulty_rejector"), &detail),
            report.outcomes[0].mismatch);
  EXPECT_EQ(detail, report.outcomes[0].detail);
}

TEST(Differential, MismatchKindNamesRoundTrip) {
  for (const MismatchKind kind :
       {MismatchKind::kNone, MismatchKind::kUnsound, MismatchKind::kMissedCycle,
        MismatchKind::kClosure, MismatchKind::kDiverged}) {
    EXPECT_EQ(parse_mismatch_kind(mismatch_kind_name(kind)), kind);
  }
  try {
    (void)parse_mismatch_kind("flaky");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("none, unsound, missed_cycle, closure, diverged"), std::string::npos)
        << msg;
  }
}

TEST(Differential, AmplifiedFarAuditRejectsACertifiedFarInstance) {
  // A dense planted-far instance at its certified epsilon: the amplified
  // tester must reject (Theorem 1 says w.p. >= 2/3; at this density the
  // observed rate is ~1 and the audit seed is pinned).
  util::Rng rng(5);
  graph::PlantedOptions opt;
  opt.k = 5;
  opt.num_cycles = 6;
  const graph::FarInstance far = graph::planted_cycles_instance(opt, rng);
  SoakScenario s = exact_scenario(5);
  s.epsilon = 0.125;
  ASSERT_GE(far.certified_epsilon(), s.epsilon);
  const std::optional<bool> rejected = amplified_far_rejects(far.graph, s);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_TRUE(*rejected);

  // A registry without an epsilon-driven detector has nothing to audit.
  core::DetectorRegistry registry;
  registry.add(std::make_unique<soak_test::FaultyRejector>());
  EXPECT_FALSE(amplified_far_rejects(far.graph, s, registry).has_value());
}

}  // namespace
}  // namespace decycle::soak
