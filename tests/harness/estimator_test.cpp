#include "harness/estimator.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <vector>

#include "engine/lanes.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/rng.hpp"

namespace decycle::harness {
namespace {

TEST(Estimator, CountsDeterministicOutcomes) {
  const auto est = estimate_rate([](std::size_t i, std::uint64_t) { return i % 4 == 0; }, 100, 1);
  EXPECT_EQ(est.trials, 100u);
  EXPECT_EQ(est.successes, 25u);
  EXPECT_DOUBLE_EQ(est.rate(), 0.25);
}

TEST(Estimator, SeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  std::mutex mu;
  (void)estimate_rate(
      [&](std::size_t, std::uint64_t seed) {
        const std::lock_guard lock(mu);
        seeds.insert(seed);
        return true;
      },
      64, 7);
  EXPECT_EQ(seeds.size(), 64u);

  std::set<std::uint64_t> seeds_again;
  (void)estimate_rate(
      [&](std::size_t, std::uint64_t seed) {
        const std::lock_guard lock(mu);
        seeds_again.insert(seed);
        return true;
      },
      64, 7);
  EXPECT_EQ(seeds, seeds_again);
}

TEST(Estimator, ParallelMatchesSerial) {
  const auto trial = [](std::size_t, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.next_bool(0.3);
  };
  const auto serial = estimate_rate(trial, 500, 99, nullptr);
  util::ThreadPool pool(4);
  const auto parallel = estimate_rate(trial, 500, 99, &pool);
  EXPECT_EQ(serial.successes, parallel.successes);
}

TEST(Estimator, RateNearTrueProbability) {
  const auto est = estimate_rate(
      [](std::size_t, std::uint64_t seed) {
        util::Rng rng(seed);
        return rng.next_bool(0.7);
      },
      4000, 5);
  EXPECT_NEAR(est.rate(), 0.7, 0.05);
  EXPECT_LT(est.interval.low, 0.7);
  EXPECT_GT(est.interval.high, 0.7);
}

TEST(Estimator, ZeroTrials) {
  const auto est = estimate_rate([](std::size_t, std::uint64_t) { return true; }, 0, 1);
  EXPECT_EQ(est.trials, 0u);
  EXPECT_EQ(est.successes, 0u);
}

TEST(Estimator, DetectorRateIsThreadCountInvariant) {
  // The detector estimator is a batch of trial_seed-seeded queries: with no
  // pool and on a 4-thread pool it must count exactly the rejections of a
  // hand loop of run_fresh over the same seeds. The edge checker probes one
  // random edge per trial, and half of this graph's edges (a C5 with a
  // 5-edge tail) lie on the cycle.
  const core::Detector& checker = core::DetectorRegistry::builtin().require("edge_checker");
  const std::vector<graph::Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4},
                                          {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}};
  const engine::PinnedGraphPtr g =
      engine::pin(graph::Graph::from_edges(10, edges), graph::IdAssignment::identity(10));
  core::DetectorOptions base;
  base.k = 5;
  constexpr std::size_t kTrials = 40;
  constexpr std::uint64_t kSeed = 2026;
  std::uint64_t rejections = 0;
  for (std::size_t i = 0; i < kTrials; ++i) {
    core::DetectorOptions options = base;
    options.seed = engine::trial_seed(kSeed, i);
    rejections += checker.run_fresh(g->graph, g->ids, options).accepted ? 0 : 1;
  }
  // Both outcomes occur, so a seed mix-up cannot go unnoticed.
  ASSERT_GT(rejections, 0u);
  ASSERT_LT(rejections, kTrials);

  const engine::DetectionEngine serial;
  util::ThreadPool pool(4);
  const engine::DetectionEngine pooled{engine::EngineOptions{.pool = &pool}};
  for (const engine::DetectionEngine* eng : {&serial, &pooled}) {
    const RateEstimate est = estimate_detector_rate(*eng, g, checker, base, kTrials, kSeed);
    EXPECT_EQ(est.trials, kTrials);
    EXPECT_EQ(est.successes, rejections);
  }
}

}  // namespace
}  // namespace decycle::harness
