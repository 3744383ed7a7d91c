/// \file threshold_tester.hpp
/// \brief Threshold-based Ck-detection family (competitor to Theorem 1).
///
/// Where the FO17 tester amplifies a single randomly selected edge execution
/// over many repetitions, the threshold family — in the spirit of
/// Fraigniaud–Luce–Todinca's threshold-based CONGEST algorithms and the
/// congested-clique "check all edges at once" style of Censor-Hillel et
/// al. — runs Phase 2 for *every* edge simultaneously in one sweep and
/// keeps the congestion bounded by explicit thresholds instead of by
/// random selection:
///
///   * every edge execution is identified by its (rank, u, v) priority,
///     ranks drawn per sweep exactly as in Phase 1 (phase1.hpp);
///   * a node tracks at most `max_tracked` concurrent executions; fresh
///     traffic for a higher-priority edge evicts the worst tracked one,
///     lower-priority traffic is discarded (counted, never silently);
///   * each link carries at most budget.at(g) sequences in phase round g
///     (one merged bundle message per link per round — the CONGEST slot
///     discipline holds); overflowing sequences are truncated in priority
///     order (counted per node).
///
/// Soundness is inherited, not argued: a node rejects only when an
/// execution's final check produces a witness pair, and every witness is
/// validated edge-by-edge against the input graph (witness.hpp), so the
/// family can never reject a Ck-free graph no matter how aggressive the
/// budgets are. Completeness degrades gracefully with the thresholds: with
/// unlimited budgets (`BudgetSchedule::none()`, max_tracked = 0) one sweep
/// is an exhaustive parallel edge scan and detection is deterministic —
/// the regime the oracle cross-test pins against the exact DFS oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/simulator.hpp"
#include "core/detect_state.hpp"
#include "core/detector.hpp"
#include "core/phase1.hpp"
#include "core/threshold/budget.hpp"

namespace decycle::core::threshold {

/// One node's budget/threshold instrumentation, accumulated over its sweeps.
struct ThresholdStats {
  std::uint64_t seeded_executions = 0;   ///< executions seeded at an endpoint
  std::uint64_t seed_capped = 0;         ///< incident edges not seeded (tracking cap)
  std::uint64_t evictions = 0;           ///< executions evicted by higher priority
  std::uint64_t discarded_sequences = 0; ///< traffic for untracked executions
  std::uint64_t budget_truncated = 0;    ///< sequences cut by the link budget
  std::size_t peak_tracked = 0;          ///< max concurrent executions at any node
};

/// The per-node program. One instance per vertex; drives one EdgeDetectState
/// per tracked execution and merges all bundles into one message per link.
class ThresholdProgram final : public congest::NodeProgram {
 public:
  ThresholdProgram(const DetectParams& params, const BudgetSchedule& budget,
                   std::size_t max_tracked, std::size_t sweeps, std::uint64_t seed,
                   std::uint64_t n, NodeId my_id);

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override;

  [[nodiscard]] bool rejected() const noexcept { return !witness_ids_.empty(); }
  [[nodiscard]] const std::vector<NodeId>& witness_ids() const noexcept { return witness_ids_; }
  [[nodiscard]] std::size_t rejecting_sweep() const noexcept { return reject_sweep_; }
  [[nodiscard]] bool overflowed() const noexcept { return overflow_; }
  [[nodiscard]] const ThresholdStats& stats() const noexcept { return stats_; }
  /// max sequences in the merged bundle broadcast at phase round g
  /// (index 0 = seed round) — Lemma-3-style instrumentation.
  [[nodiscard]] std::span<const std::size_t> max_sent_by_round() const noexcept {
    return max_sent_by_round_;
  }

 private:
  /// One tracked edge execution. `pending` accumulates this round's inbound
  /// sequences before the state machine steps once per round.
  struct Execution {
    EdgePriority ep;
    EdgeDetectState state;
    std::vector<IdSeq> pending;
  };

  void start_sweep(congest::Context& ctx, std::size_t sweep);
  void seed_executions(congest::Context& ctx, std::span<const congest::Envelope> inbox);
  void bundle_round(congest::Context& ctx, std::span<const congest::Envelope> inbox,
                    std::uint64_t g);
  /// Adds sequences to the execution for \p ep, adopting (and possibly
  /// evicting) under the tracking cap. May create the execution's state.
  void deliver(const EdgePriority& ep, std::vector<IdSeq>&& seqs);
  /// Broadcasts every execution's outgoing bundle as one merged message,
  /// truncated to budget_.at(g) sequences in priority order.
  void broadcast_bundles(congest::Context& ctx, std::uint64_t g,
                         std::vector<std::pair<const EdgePriority*, std::vector<IdSeq>>>& out);

  DetectParams params_;
  BudgetSchedule budget_;
  std::size_t max_tracked_;
  std::size_t sweeps_;
  std::uint64_t seed_;
  std::uint64_t rank_range_;
  NodeId my_id_;
  unsigned half_;
  std::uint64_t sweep_len_;

  // Per-sweep state.
  std::vector<std::uint64_t> port_rank_;  ///< rank per incident edge (by port)
  std::vector<Execution> tracked_;        ///< sorted ascending by priority

  // Outputs / instrumentation.
  std::vector<NodeId> witness_ids_;
  std::size_t reject_sweep_ = 0;
  bool overflow_ = false;
  ThresholdStats stats_;
  std::vector<std::size_t> max_sent_by_round_;
};

/// The registry's "threshold" (DetectorRegistry::builtin()): resets the
/// simulator with ThresholdPrograms for DetectorOptions::repetitions sweeps
/// (0 = one sweep) under DetectorOptions::budget and max_tracked. Counters:
/// seeded_total, seed_capped_total, evictions_total, discarded_seqs_total,
/// budget_truncated_total (sums over nodes) and peak_tracked (max).
[[nodiscard]] std::unique_ptr<Detector> make_threshold_detector();

}  // namespace decycle::core::threshold
