/// \file scan.hpp
/// \brief Exhaustive deterministic Ck detection: Phase 2 over every edge.
///
/// The property-testing relaxation buys Theorem 1 its O(1/ε) rounds; without
/// it, the same Phase-2 subroutine still yields an *exact* distributed
/// detector by checking all m edges back-to-back: ⌈m·(⌊k/2⌋+1)⌉ rounds, no
/// randomness, no farness assumption. This module implements that scan —
/// both as the natural "strongest correctness baseline" and as one side of
/// the cost/accuracy trade-off measured by experiment A3 (the tester wins
/// whenever 1/ε ≪ m; the crossover is at ε* ≈ e²ln3·(⌊k/2⌋+2) /
/// (m·(⌊k/2⌋+1))).
#pragma once

#include "core/detector.hpp"

namespace decycle::core {

struct ScanOptions {
  DetectParams detect;
  bool stop_at_first = true;  ///< early exit once a cycle is found
};

struct ScanResult {
  bool found = false;
  std::vector<graph::Vertex> witness;  ///< validated cycle when found
  std::size_t edges_checked = 0;
  /// Rounds of the sequential distributed schedule: one Phase-2 execution of
  /// (⌊k/2⌋+1) rounds per checked edge.
  std::uint64_t schedule_rounds = 0;
  std::size_t total_messages = 0;
  std::uint64_t total_bits = 0;
};

/// Runs the registry's single-edge checker on every edge (in index order),
/// resetting one simulator per edge. Exact: finds a Ck iff one exists; the
/// witness is the first rejecting edge's. schedule_rounds reflects the
/// sequential distributed schedule.
[[nodiscard]] ScanResult exhaustive_ck_scan(const graph::Graph& g,
                                            const graph::IdAssignment& ids,
                                            const ScanOptions& options);

}  // namespace decycle::core
