#include "harness/estimator.hpp"

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "congest/comm_model.hpp"
#include "engine/graph_store.hpp"
#include "engine/session_pool.hpp"

namespace decycle::harness {

RateEstimate estimate_rate(const std::function<bool(std::size_t, std::uint64_t)>& trial,
                           std::size_t trials, std::uint64_t base_seed, util::ThreadPool* pool) {
  std::atomic<std::uint64_t> successes{0};
  const auto run_one = [&](std::size_t i) {
    if (trial(i, trial_seed(base_seed, i))) successes.fetch_add(1, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    pool->parallel_for(trials, run_one);
  } else {
    for (std::size_t i = 0; i < trials; ++i) run_one(i);
  }
  RateEstimate out;
  out.trials = trials;
  out.successes = successes.load();
  out.interval = util::wilson_interval(out.successes, out.trials);
  return out;
}

RateEstimate estimate_rate_lanes(const LaneFactory& make_lane, std::size_t trials,
                                 std::uint64_t base_seed, util::ThreadPool* pool) {
  if (trials == 0) {
    // Nothing to run: in particular make_lane is never invoked, so callers
    // don't pay for per-lane state (a session lease) they won't use.
    RateEstimate empty;
    empty.interval = util::wilson_interval(0, 0);
    return empty;
  }
  // Per-trial outcomes are stored by index and reduced serially, so the
  // estimate cannot depend on lane boundaries or scheduling.
  std::vector<std::uint8_t> outcome(trials, 0);
  engine::for_lanes(pool, trials, nullptr,
                    [&](std::size_t lane, std::size_t begin, std::size_t end) {
                      const TrialFn trial = make_lane(lane);
                      for (std::size_t i = begin; i < end; ++i) {
                        outcome[i] = trial(i, trial_seed(base_seed, i)) ? 1 : 0;
                      }
                    });
  RateEstimate out;
  out.trials = trials;
  for (const std::uint8_t ok : outcome) out.successes += ok;
  out.interval = util::wilson_interval(out.successes, out.trials);
  return out;
}

LaneFactory detector_lanes(const core::Detector& detector, const graph::Graph& g,
                           const graph::IdAssignment& ids, core::DetectorOptions base) {
  // Pin once per factory (one O(n + m) hash sweep); every lane leases a
  // session for the pin from the shared engine, so a later estimate on the
  // same topology content starts warm.
  engine::PinnedGraphPtr pinned = engine::pin(g, ids);
  return [&detector, base = std::move(base),
          pinned = std::move(pinned)](std::size_t) -> TrialFn {
    auto& eng = engine::shared_engine();
    const congest::CommModel& model = core::default_comm_model(detector.capabilities());
    // shared_ptr keeps the move-only lease alive inside the copyable
    // std::function wrapper; release on lane teardown returns the session
    // to the cache.
    auto lease = std::make_shared<engine::SessionPool::Lease>(
        eng.sessions().lease(pinned, model));
    return [&detector, base, lease, pinned](std::size_t, std::uint64_t seed) {
      core::DetectorOptions options = base;
      options.seed = seed;
      return !detector.run(lease->sim(), options).accepted;
    };
  };
}

RateEstimate estimate_detector_rate(const engine::DetectionEngine& eng,
                                    const engine::PinnedGraphPtr& graph,
                                    const core::Detector& detector,
                                    const core::DetectorOptions& base, std::size_t trials,
                                    std::uint64_t base_seed) {
  const congest::CommModel& model = core::default_comm_model(detector.capabilities());
  std::vector<engine::Query> queries(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    queries[i].detector = &detector;
    queries[i].options = base;
    queries[i].options.seed = trial_seed(base_seed, i);
    queries[i].model = &model;
  }
  const std::vector<core::Verdict> verdicts = eng.run_batch(graph, queries);
  RateEstimate out;
  out.trials = trials;
  for (const core::Verdict& v : verdicts) out.successes += v.accepted ? 0 : 1;
  out.interval = util::wilson_interval(out.successes, out.trials);
  return out;
}

}  // namespace decycle::harness
