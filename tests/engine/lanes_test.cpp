/// engine/lanes.hpp: the shared lane/seed substrate.
///
/// for_lanes is the one dispatch under the estimator, the lab runner, the
/// soak campaign, and DetectionEngine::run_batch, so its partition
/// properties ARE the byte-identity contract: every unit visited exactly
/// once, lanes contiguous and ordered, and the blocks reproducing
/// lane_range exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "engine/lanes.hpp"
#include "util/thread_pool.hpp"

namespace decycle::engine {
namespace {

/// Runs for_lanes and returns per-unit visit counts plus the observed lane
/// blocks, validated for contiguity.
struct Coverage {
  std::vector<int> visits;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // by lane index
};

Coverage cover(util::ThreadPool* pool, std::size_t count) {
  Coverage out;
  out.visits.assign(count, 0);
  out.blocks.assign(std::max<std::size_t>(lane_count(pool, count), 1), {0, 0});
  std::mutex mu;
  for_lanes(pool, count, [&](std::size_t lane, std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    out.blocks.at(lane) = {begin, end};
    for (std::size_t i = begin; i < end; ++i) ++out.visits.at(i);
  });
  return out;
}

void expect_exact_cover(const Coverage& c, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(c.visits[i], 1) << "unit " << i;
  }
  // Blocks sorted by lane index must tile [0, count) without gaps.
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : c.blocks) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_LE(begin, end);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, count);
}

TEST(Lanes, LaneRangeTilesExactly) {
  for (const std::size_t total : {1u, 7u, 16u, 97u}) {
    for (const std::size_t lanes : {1u, 2u, 3u, 8u}) {
      if (lanes > total) continue;
      std::size_t prev_end = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const auto [begin, end] = lane_range(total, lane, lanes);
        EXPECT_EQ(begin, prev_end);
        prev_end = end;
      }
      EXPECT_EQ(prev_end, total);
    }
  }
}

TEST(Lanes, LaneCountPolicy) {
  EXPECT_EQ(lane_count(nullptr, 100), 1u);
  util::ThreadPool pool(4);
  EXPECT_EQ(lane_count(&pool, 100), 4u);
  EXPECT_EQ(lane_count(&pool, 2), 2u);   // never more lanes than units
  EXPECT_EQ(lane_count(&pool, 0), 1u);   // clamped to at least one
}

TEST(Lanes, SerialWithoutPoolUsesOneLane) {
  const Coverage c = cover(nullptr, 13);
  expect_exact_cover(c, 13);
  EXPECT_EQ(c.blocks.size(), 1u);
  EXPECT_EQ(c.blocks[0], (std::pair<std::size_t, std::size_t>{0, 13}));
}

TEST(Lanes, UniformMatchesLaneRange) {
  util::ThreadPool pool(3);
  const std::size_t count = 17;
  const Coverage c = cover(&pool, count);
  expect_exact_cover(c, count);
  ASSERT_EQ(c.blocks.size(), 3u);
  for (std::size_t lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(c.blocks[lane], lane_range(count, lane, 3));
  }
}

TEST(Lanes, ZeroUnitsNeverInvokesTheCallback) {
  util::ThreadPool pool(2);
  bool invoked = false;
  for_lanes(&pool, 0, [&](std::size_t, std::size_t, std::size_t) { invoked = true; });
  EXPECT_FALSE(invoked);
}

}  // namespace
}  // namespace decycle::engine
