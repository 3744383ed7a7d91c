/// \file lanes.hpp
/// \brief The lane/seed substrate every batched execution layer shares.
///
/// Three subsystems used to re-derive the same three facts independently:
/// how many contiguous lanes a batch splits into (harness estimator, lab
/// runner, soak campaign), which [begin, end) block of unit indices a lane
/// owns, and how a unit's 64-bit seed is folded from its content identity
/// (trial index, cell key string, soak instance id string). This header is
/// now the single definition of all of them — the byte-identity contracts
/// of the golden nightly matrix, the soak campaign logs, and every checked
/// in repro file are pinned to these derivations (see
/// tests/lab/seed_stability_test.cpp), so they must never move again.
///
/// The execution discipline that rides on top (and that engine::for_lanes
/// implements once): units are partitioned into contiguous lanes, one lane
/// per pool worker; per-lane state (a leased Simulator session) is confined
/// to its lane; outcomes land in per-unit indexed slots; reductions run
/// serially in unit order. Output is then a pure function of unit content —
/// independent of thread count, lane boundaries, and scheduling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace decycle::engine {

/// Trial \p trial's seed. The single definition shared by
/// harness::estimate_rate, harness::estimate_detector_rate, and the lab
/// runner — their estimates are bit-compatible because they all derive
/// seeds here.
[[nodiscard]] constexpr std::uint64_t trial_seed(std::uint64_t base_seed,
                                                 std::size_t trial) noexcept {
  return util::splitmix64(base_seed ^ util::splitmix64(trial + 1));
}

/// Content-addressed seed folding: splitmix64-absorbs every byte of \p id
/// into \p h. Lab cell seeds fold the canonical cell key, soak instance
/// seeds fold "soak/v1 seed=<S> instance=<I>" — both through this one
/// function, so the fold can never drift between subsystems.
[[nodiscard]] constexpr std::uint64_t fold_seed(std::uint64_t h, std::string_view id) noexcept {
  for (const char c : id) h = util::splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}

/// Lane \p lane's contiguous [begin, end) block of \p total units.
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> lane_range(
    std::size_t total, std::size_t lane, std::size_t lanes) noexcept {
  return {total * lane / lanes, total * (lane + 1) / lanes};
}

/// How many lanes \p units split into on \p pool: one per worker, never
/// more than units, 1 without a pool.
[[nodiscard]] inline std::size_t lane_count(const util::ThreadPool* pool,
                                            std::size_t units) noexcept {
  if (pool == nullptr) return 1;
  return std::max<std::size_t>(1, std::min(pool->size(), units));
}

/// One lane's serial sweep over its contiguous block: fn(lane, begin, end).
using LaneFn = std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

/// Runs \p count units through contiguous lanes across \p pool — the one
/// dispatch the lab runner, the soak campaign, and DetectionEngine::run_batch
/// all use. Lanes are the lane_count(pool, count) blocks of lane_range — the
/// boundaries every golden was cut with. The caller's fn must write results
/// into per-unit indexed slots; with that discipline the reduction cannot
/// observe lane boundaries and output is byte-identical for any thread count.
void for_lanes(util::ThreadPool* pool, std::size_t count, const LaneFn& fn);

}  // namespace decycle::engine
