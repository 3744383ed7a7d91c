/// \file clique_hcycle.hpp
/// \brief Cycle-count-adaptive h-cycle detection in the Congested Clique,
/// after Censor-Hillel, Even and Vassilevska Williams (arXiv 2408.15132).
///
/// The headline property of that paper is that h-cycle detection in the
/// Congested Clique gets FASTER the more h-cycles the input contains: a
/// small random vertex sample already induces a copy of C_h when copies
/// abound, so an algorithm that examines doubling samples exits early on
/// cycle-rich inputs and only pays for the full graph when cycles are rare
/// or absent. This file implements that schedule as a leader-coordinated
/// protocol under the simulator's clique model:
///
///   * A shared seed orders the vertices by a random permutation rank;
///     phase p samples S_p = the min(n, s0·2^p) lowest-ranked vertices
///     (samples are nested, so a vertex reports once, ever).
///   * Phase p, round 2p: the vertices that just joined S_p send their
///     input-graph adjacency row to the collector (vertex 0) over their
///     direct clique link. Round 2p+1: the collector folds the new rows
///     into its accumulated S_p-induced subgraph and runs the exact
///     C_k search on it.
///   * Found: the collector broadcasts the witness to all n-1 peers and the
///     network quiesces — an early exit whose saved rounds scale with how
///     soon a sample contained a cycle. Not found and S_p == V: quiesce
///     accepting. Otherwise: broadcast "continue", which tells the next
///     doubling's joiners to report.
///
/// The final phase collects the entire graph, so a drop-free run is EXACT:
/// accept iff the DFS oracle finds no C_k (the soak differential pins this
/// via exact_when_lossless). Message drops only lose rows or continues —
/// detections are lost, never fabricated (1-sided error preserved).
///
/// Bandwidth honesty: rows are whole adjacency lists in one message, i.e.
/// this is the O(1)-round Congested Clique idiom (Lenzen routing compressed
/// into one logical round); RunStats' bit totals account the real traffic,
/// which is how the bench demonstrates the cycle-count adaptivity.
#pragma once

#include <memory>

#include "core/detector.hpp"

namespace decycle::baselines {

/// The registry's "clique_hcycle" (core::DetectorRegistry::builtin()): runs
/// on a Simulator built with CommModel::clique() only (anything else throws
/// CheckError); DetectorOptions::seed drives the sampling permutation, and
/// |S_0| = 8. Counters: phases_total, sampled_vertices_total (|S| at exit),
/// sampled_edges_total (the collector's subgraph at exit), early_exit_trials
/// (found before the full-vertex phase) and rounds_saved_total (schedule
/// rounds the early exit skipped).
[[nodiscard]] std::unique_ptr<core::Detector> make_clique_hcycle_detector();

}  // namespace decycle::baselines
