#include "engine/lanes.hpp"

namespace decycle::engine {

void for_lanes(util::ThreadPool* pool, std::size_t count, const LaneFn& fn) {
  if (count == 0) return;
  const std::size_t lanes = lane_count(pool, count);
  const auto run_lane = [&](std::size_t lane) {
    const auto [begin, end] = lane_range(count, lane, lanes);
    fn(lane, begin, end);
  };
  if (pool != nullptr) {
    pool->run_lanes(lanes, run_lane);
  } else {
    run_lane(0);
  }
}

}  // namespace decycle::engine
