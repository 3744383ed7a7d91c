/// \file engine.hpp
/// \brief DetectionEngine: one batched query-execution substrate for every
/// consumer.
///
/// Before this layer, three subsystems each owned a private copy of the
/// same machinery — lane ranges, per-lane Simulator reuse, indexed result
/// slots, serial reduction: harness::estimate_rate_lanes, the lab runner's
/// per-worker lanes, and the soak campaign's batched slots. DetectionEngine
/// is the single implementation (DESIGN.md §12):
///
///   * a GraphStore of content-addressed pinned graphs with mutation epochs;
///   * a SessionPool caching Simulators behind lane-confined leases;
///   * run_batch: a vector of typed queries (detector, fully resolved
///     DetectorOptions, model, cost weight) against one pinned graph,
///     partitioned into contiguous cost-weighted lanes via
///     ThreadPool::for_weighted; each lane leases one session per session
///     key and runs its queries serially through it; verdicts land in
///     per-query indexed slots, so any reduction that walks them in
///     submission order is byte-identical at every thread count.
///
/// The reduction contract: run_batch returns Verdicts in submission order
/// and *never* aggregates across queries itself — summing, maxing, and
/// typed-counter folding (reduce_counters) are the caller's serial loop.
/// That split is what lets the lab, the harness, and future `decycle_serve`
/// response shaping share one executor while keeping their own output
/// formats bit-stable.
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
  /// Relative cost for the lane split (1 = uniform). Callers that know a
  /// query is heavier — amplified repetitions, larger k — bias the
  /// contiguous partition with it.
  std::uint64_t weight = 1;
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
  [[nodiscard]] GraphStore& store() noexcept { return store_; }
  [[nodiscard]] SessionPool& sessions() const noexcept { return sessions_; }
  [[nodiscard]] SessionStats session_stats() const { return sessions_.stats(); }

  /// Runs every query against \p graph and returns the verdicts in
  /// submission order (per-query indexed slots — the byte-identity
  /// contract). Lanes are contiguous and cost-weighted by Query::weight;
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
  GraphStore store_;
  mutable SessionPool sessions_;
};

/// Folds \p verdicts' per-query counter values into \p d's counter table
/// shape, per each CounterDef's kind (sum or max) — the serial typed
/// reduction every consumer shares. Returns one value per counters() entry.
[[nodiscard]] std::vector<std::uint64_t> reduce_counters(const core::Detector& d,
                                                         std::span<const core::Verdict> verdicts);

/// Process-wide engine for harness conveniences (detector_lanes): lazily
/// constructed, no pool (callers pass their own parallelism), default
/// session capacity. Cached sessions persist across estimate calls on the
/// same topology — the cold-vs-warm gap bench/m8_engine_micro measures.
[[nodiscard]] DetectionEngine& shared_engine();

}  // namespace decycle::engine
