#include "harness/estimator.hpp"

#include <atomic>
#include <vector>

#include "congest/comm_model.hpp"
#include "engine/lanes.hpp"

namespace decycle::harness {

RateEstimate estimate_rate(const std::function<bool(std::size_t, std::uint64_t)>& trial,
                           std::size_t trials, std::uint64_t base_seed, util::ThreadPool* pool) {
  std::atomic<std::uint64_t> successes{0};
  const auto run_one = [&](std::size_t i) {
    if (trial(i, engine::trial_seed(base_seed, i))) {
      successes.fetch_add(1, std::memory_order_relaxed);
    }
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
    queries[i].options.seed = engine::trial_seed(base_seed, i);
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
