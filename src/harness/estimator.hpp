/// \file estimator.hpp
/// \brief Acceptance/rejection-rate estimation over independent trials.
///
/// The completeness experiments (T2) measure Pr[reject] over many
/// independent tester executions. Trials are embarrassingly parallel: each
/// gets its own seed derived from (base_seed, trial index), so the estimate
/// is identical for any thread count. Wilson intervals quantify the
/// uncertainty so benches can assert "detection >= 2/3" honestly.
///
/// Two estimators, one seed derivation (engine::trial_seed): estimate_rate
/// runs any trial functor, estimate_detector_rate runs a registry detector
/// through a DetectionEngine batch (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>

#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace decycle::harness {

struct RateEstimate {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  util::ProportionInterval interval{0, 0, 1};

  [[nodiscard]] double rate() const noexcept { return interval.estimate; }
};

/// Runs \p trial(trial_index, trial_seed) `trials` times — through
/// engine::for_lanes, so in contiguous lanes across \p pool when one is
/// given — and reports the success rate with a 95% Wilson interval. Each
/// trial must depend only on its index and seed.
[[nodiscard]] RateEstimate estimate_rate(
    const std::function<bool(std::size_t, std::uint64_t)>& trial, std::size_t trials,
    std::uint64_t base_seed, util::ThreadPool* pool = nullptr);

/// The detector estimator: builds one engine::Query per trial (seed =
/// trial_seed(base_seed, i), model = the detector's default), runs the
/// batch through \p eng — leased sessions, lanes on eng's pool — and folds
/// rejections (a trial's "success") into a Wilson estimate. Bit-identical
/// for any pool size, and to running each trial's query through
/// Detector::run_fresh.
[[nodiscard]] RateEstimate estimate_detector_rate(const engine::DetectionEngine& eng,
                                                  const engine::PinnedGraphPtr& graph,
                                                  const core::Detector& detector,
                                                  const core::DetectorOptions& base,
                                                  std::size_t trials, std::uint64_t base_seed);

}  // namespace decycle::harness
