#include "soak/space.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "graph/subgraph.hpp"

namespace decycle::soak {
namespace {

TEST(SoakSpace, DrawIsAPureFunctionOfSeedAndIndex) {
  const SoakSpace space;
  for (std::uint64_t index : {0ULL, 7ULL, 123ULL}) {
    const SoakInstance a = space.draw(42, index);
    const SoakInstance b = space.draw(42, index);
    EXPECT_EQ(a.instance_seed, b.instance_seed);
    EXPECT_EQ(a.scenario.key(), b.scenario.key());
    EXPECT_EQ(a.base, b.base);
    ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
    for (graph::EdgeId e = 0; e < a.graph.num_edges(); ++e) {
      EXPECT_EQ(a.graph.edge(e), b.graph.edge(e));
    }
  }
}

TEST(SoakSpace, InstanceSeedIsContentAddressed) {
  // Distinct (campaign, index) pairs map to distinct seeds, and an
  // instance's seed does not depend on how many other instances the
  // campaign runs — index i is index i forever.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t campaign : {1ULL, 2ULL}) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seeds.insert(SoakSpace::instance_seed(campaign, index));
    }
  }
  EXPECT_EQ(seeds.size(), 128u);
}

TEST(SoakSpace, DrawsCoverTheSpace) {
  const SoakSpace space;
  std::set<unsigned> ks;
  std::set<std::string> adversaries;
  std::set<std::string> budgets;
  bool planted = false;
  bool far = false;
  bool default_reps = false;
  for (std::uint64_t index = 0; index < 200; ++index) {
    const SoakInstance inst = space.draw(7, index);
    ASSERT_GE(inst.graph.num_vertices(), 1u);
    ASSERT_GE(inst.scenario.k, SoakSpace::kMinK);
    ASSERT_LE(inst.scenario.k, space.max_k);
    ks.insert(inst.scenario.k);
    adversaries.insert(inst.scenario.adversary.name());
    budgets.insert(inst.scenario.budget.name());
    planted |= inst.base.find("xC") != std::string::npos;
    far |= inst.certified_far;
    default_reps |= inst.scenario.repetitions == 0;
  }
  EXPECT_GE(ks.size(), 5u);           // most k values appear
  EXPECT_GE(adversaries.size(), 4u);  // none + the three drop kinds, rates vary
  EXPECT_GE(budgets.size(), 3u);      // none, flat caps, schedules
  EXPECT_TRUE(planted);               // compositions with planted C_k's occur
  EXPECT_TRUE(far);                   // certified-far bases occur
  EXPECT_TRUE(default_reps);          // amplified-default runs occur
}

TEST(SoakSpace, PlantedCompositionsContainCk) {
  const SoakSpace space;
  std::size_t checked = 0;
  for (std::uint64_t index = 0; index < 120 && checked < 10; ++index) {
    const SoakInstance inst = space.draw(11, index);
    if (inst.base.find("xC") == std::string::npos) continue;
    ++checked;
    EXPECT_TRUE(graph::has_cycle(inst.graph, inst.scenario.k))
        << "index=" << index << " base=" << inst.base;
  }
  EXPECT_GE(checked, 5u);
}

TEST(SoakSpace, CertifiedFarInstancesReallyContainCycles) {
  const SoakSpace space;
  std::size_t checked = 0;
  for (std::uint64_t index = 0; index < 200 && checked < 8; ++index) {
    const SoakInstance inst = space.draw(13, index);
    if (!inst.certified_far) continue;
    ++checked;
    EXPECT_TRUE(graph::has_cycle(inst.graph, inst.scenario.k))
        << "index=" << index << " base=" << inst.base;
  }
  EXPECT_GE(checked, 3u);
}

TEST(SoakSpace, InvalidBoundsFailLoudlyInsteadOfUnderflowing) {
  // --max-n=4 used to compute (4 - 8 + 1) on an unsigned and draw
  // billion-vertex instances; now the bounds are validated.
  SoakSpace space;
  space.max_n = 4;
  EXPECT_NE(space.validate().find("n bounds"), std::string::npos);
  EXPECT_THROW((void)space.draw(1, 0), util::CheckError);

  SoakSpace tiny_k;
  tiny_k.max_k = 2;  // below the registry's smallest supported cycle length
  EXPECT_NE(tiny_k.validate().find("k bounds"), std::string::npos);
  EXPECT_THROW((void)tiny_k.draw(1, 0), util::CheckError);

  SoakSpace huge;
  huge.max_n = 1u << 20;  // the DFS oracle could not keep up
  EXPECT_NE(huge.validate().find("n bounds"), std::string::npos);

  EXPECT_EQ(SoakSpace{}.validate(), "");
}

TEST(SoakScenario, KeyRoundTripsTheKnobs) {
  SoakScenario s;
  s.k = 7;
  s.epsilon = 0.25;
  s.repetitions = 2;
  s.budget = core::threshold::BudgetSchedule::parse("4,8");
  s.track = 3;
  s.adversary = lab::parse_adversary("late:0.5");
  s.seed = 99;
  EXPECT_EQ(s.key(), "k=7 eps=0.25 reps=2 budget=4,8 track=3 adversary=late:0.5 seed=99");
}

}  // namespace
}  // namespace decycle::soak
