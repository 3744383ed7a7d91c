/// \file engine.hpp
/// \brief DetectionEngine: one batched query-execution substrate for every
/// consumer.
///
/// The lab runner, the rate estimator, the incremental session bridge and
/// the serving daemon all execute detector queries through this one layer
/// (DESIGN.md §12):
///
///   * content-addressed PinnedGraphs with mutation epochs (graph_store.hpp);
///   * a SessionPool caching Simulators behind lane-confined leases;
///   * run_batch: a vector of typed queries (detector, fully resolved
///     DetectorOptions, model) against one pinned graph, partitioned into
///     contiguous lane_range lanes via for_lanes; each lane leases one
///     session per session key and runs its queries serially through it;
///     verdicts land in per-query indexed slots, so any reduction that walks
///     them in submission order is byte-identical at every thread count;
///   * run_one: one query through one lease (the daemon's path).
///
/// The reduction contract: run_batch returns Verdicts in submission order
/// and *never* aggregates across queries itself — summing, maxing, and
/// typed-counter folding are the caller's serial loop, which is what lets
/// each caller keep its own output format bit-stable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/comm_model.hpp"
#include "core/detector.hpp"
#include "engine/graph_store.hpp"
#include "engine/lanes.hpp"
#include "engine/session_pool.hpp"
#include "util/thread_pool.hpp"

namespace decycle::engine {

/// One typed detection query: a single detector run. `options` must be
/// fully resolved by the caller — seed, drop filter, every knob —
/// and a pure function of the query's content identity, so that execution
/// order can never leak into results.
struct Query {
  const core::Detector* detector = nullptr;
  core::DetectorOptions options;
  /// Communication model the query's session is built under. The engine
  /// refuses (at DECYCLE_CHECK level) detectors whose capability mask
  /// excludes it.
  const congest::CommModel* model = &congest::CommModel::congest();
};

struct EngineOptions {
  util::ThreadPool* pool = nullptr;  ///< query-level parallelism (lanes)
  /// Idle-session cache capacity (SessionPool). 0 caches nothing.
  std::size_t session_capacity = SessionPool::kDefaultCapacity;
};

class DetectionEngine {
 public:
  explicit DetectionEngine(const EngineOptions& options = {});

  DetectionEngine(const DetectionEngine&) = delete;
  DetectionEngine& operator=(const DetectionEngine&) = delete;

  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
  [[nodiscard]] SessionPool& sessions() const noexcept { return sessions_; }
  [[nodiscard]] SessionStats session_stats() const { return sessions_.stats(); }

  /// Runs every query against \p graph and returns the verdicts in
  /// submission order (per-query indexed slots — the byte-identity
  /// contract). Lanes are the contiguous lane_range blocks of for_lanes;
  /// each lane holds one leased session at a time and re-leases when the
  /// session key changes (model switches mid-batch are legal but cost a
  /// lease each).
  [[nodiscard]] std::vector<core::Verdict> run_batch(const PinnedGraphPtr& graph,
                                                     std::span<const Query> queries) const;

  /// One query through a leased session — run_batch's inner step, exposed
  /// for callers with their own loop structure.
  [[nodiscard]] core::Verdict run_one(const PinnedGraphPtr& graph, const Query& q) const;

 private:
  [[nodiscard]] core::Verdict run_leased(SessionPool::Lease& lease, const PinnedGraphPtr& graph,
                                         const Query& q) const;

  EngineOptions options_;
  mutable SessionPool sessions_;
};

}  // namespace decycle::engine
