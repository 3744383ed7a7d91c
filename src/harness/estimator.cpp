#include "harness/estimator.hpp"

#include <vector>

#include "congest/comm_model.hpp"
#include "engine/lanes.hpp"

namespace decycle::harness {

RateEstimate estimate_rate(const std::function<bool(std::size_t, std::uint64_t)>& trial,
                           std::size_t trials, std::uint64_t base_seed, util::ThreadPool* pool) {
  // Each lane counts its successes into its own slot; the slots are summed
  // in lane order.
  std::vector<std::uint64_t> lane_successes(engine::lane_count(pool, trials), 0);
  engine::for_lanes(pool, trials, [&](std::size_t lane, std::size_t begin, std::size_t end) {
    std::uint64_t successes = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (trial(i, engine::trial_seed(base_seed, i))) ++successes;
    }
    lane_successes[lane] = successes;
  });
  RateEstimate out;
  out.trials = trials;
  for (const std::uint64_t successes : lane_successes) out.successes += successes;
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
