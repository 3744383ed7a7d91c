/// \file incremental.hpp
/// \brief Streaming cycle detection under edge insertions.
///
/// Production callers do not hand over a finished graph — they insert edges
/// one at a time and ask "did this insert close a cycle?" per operation
/// (ROADMAP's incremental-service item). ForestConnectivity answers that
/// question on the hot path with a zero-allocation steady state.
/// Union-find with path compression and union by rank answers "are u and v
/// already connected?" in near-constant amortized time; a parallel spanning
/// forest with small-tree re-rooting records one actual tree path per
/// component, so a closing insert can surface a *witness cycle* (the u..v
/// tree path plus the inserted edge) in O(cycle length) — the same
/// validated-witness discipline every batch detector obeys.
///
/// The detector requires duplicate-free input (a duplicate edge would be a
/// 2-cycle in a multigraph but no cycle in the simple-graph model everything
/// downstream assumes); the stream format (stream.hpp) and the generator
/// enforce that offline so the hot path never pays a membership probe.
/// IncrementalSession (session.hpp) wraps it with the engine's
/// snapshot/epoch machinery for batch-detector interop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace decycle::incremental {

/// Verdict of one streamed insert. The witness span points into a buffer
/// owned by the detector and is valid until the next insert() or reset().
struct InsertVerdict {
  bool closed_cycle = false;
  /// Witness cycle as a vertex sequence (consecutive vertices adjacent, the
  /// last closing back to the first through the inserted edge). Empty when
  /// the insert did not close a cycle.
  std::span<const graph::Vertex> witness;
};

/// Undirected streaming connectivity: union-find verdicts plus a spanning
/// forest for witness-path extraction. All storage is sized by reset(n) and
/// reused across inserts; the steady state allocates nothing.
class ForestConnectivity {
 public:
  ForestConnectivity() = default;
  explicit ForestConnectivity(graph::Vertex n) { reset(n); }

  /// Prepares for a fresh stream on \p n vertices. Reuses prior capacity.
  void reset(graph::Vertex n);

  [[nodiscard]] graph::Vertex num_vertices() const noexcept {
    return static_cast<graph::Vertex>(uf_parent_.size());
  }
  [[nodiscard]] std::uint64_t inserts() const noexcept { return inserts_; }
  [[nodiscard]] std::uint64_t closures() const noexcept { return closures_; }

  /// Streams undirected edge {u,v}. Endpoints must be < n and distinct, and
  /// the edge must not have been inserted before (duplicate-free contract).
  /// Returns whether the insert closed a cycle, with the witness when it did.
  InsertVerdict insert(graph::Vertex u, graph::Vertex v);

  /// The union-find verdict alone — the branch-only hot path the throughput
  /// gate measures. Identical closed_cycle answer to insert(), no witness,
  /// and the forest still tracks tree edges so later insert() calls stay
  /// correct.
  bool insert_fast(graph::Vertex u, graph::Vertex v);

  /// Current component representative of \p v (path-compressing).
  [[nodiscard]] graph::Vertex find(graph::Vertex v);

  [[nodiscard]] bool connected(graph::Vertex u, graph::Vertex v) {
    return find(u) == find(v);
  }

 private:
  /// Reverses tree-parent pointers along v → root so \p v becomes the root
  /// of its forest tree. Cost: the old v→root path length.
  void reroot(graph::Vertex v);
  /// Records tree edge {u,v} joining two components (v's is the smaller).
  void link(graph::Vertex u, graph::Vertex v, graph::Vertex root_u, graph::Vertex root_v);
  void extract_witness(graph::Vertex u, graph::Vertex v);

  std::vector<graph::Vertex> uf_parent_;
  std::vector<std::uint8_t> uf_rank_;
  std::vector<std::uint32_t> comp_size_;     ///< valid at union-find roots
  std::vector<graph::Vertex> tree_parent_;   ///< spanning forest, kInvalidVertex at roots
  std::vector<std::uint32_t> stamp_;         ///< witness-walk marks
  std::uint32_t stamp_round_ = 0;
  std::vector<graph::Vertex> witness_;       ///< reused witness buffer
  std::vector<graph::Vertex> path_v_;        ///< scratch for the v-side walk
  std::uint64_t inserts_ = 0;
  std::uint64_t closures_ = 0;
};

}  // namespace decycle::incremental
