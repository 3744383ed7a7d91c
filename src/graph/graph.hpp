/// \file graph.hpp
/// \brief Immutable simple undirected graph in CSR form.
///
/// The CONGEST network is a connected simple graph (paper §2.1). Vertices are
/// dense indices 0..n-1 (the simulator's unit of addressing); the *identities*
/// the algorithm reasons about are assigned separately (see ids.hpp), which
/// keeps "network topology" and "ID space" independent, exactly as the model
/// does.
///
/// Neighbor lists are sorted, so adjacency tests are O(log deg) and iteration
/// order is deterministic. Edges are canonicalized (u < v) and sorted
/// lexicographically; edge_id() gives each edge a stable dense index used for
/// rank assignment (Phase 1) and for edge-removal bitmaps (packing).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace decycle::graph {

using Vertex = std::uint32_t;
using Edge = std::pair<Vertex, Vertex>;  ///< canonical: first < second
using EdgeId = std::uint32_t;

inline constexpr Vertex kInvalidVertex = ~Vertex{0};
inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};

class Graph {
 public:
  /// Builds a graph on \p n vertices from an arbitrary edge list.
  /// Self-loops are rejected; parallel edges are deduplicated (the model
  /// works on simple graphs). Endpoints must be < n.
  [[nodiscard]] static Graph from_edges(Vertex n, std::span<const Edge> edges);

  /// Streaming build for generator-scale graphs: \p edges must already be
  /// canonical (u < v) and strictly lexicographically increasing — exactly
  /// what ordered emitters (circulant, grid rows) produce — so the CSR
  /// fills sorted in two passes with no sort and no dedup buffer. Takes the
  /// vector by value and keeps it as the edge list (no copy when moved in).
  [[nodiscard]] static Graph from_ordered_edges(Vertex n, std::vector<Edge> edges);

  Graph() = default;

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }
  [[nodiscard]] std::size_t degree(Vertex v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }
  [[nodiscard]] std::size_t max_degree() const noexcept { return max_degree_; }

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  /// Canonical (u < v), lexicographically sorted edge list.
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Dense index of edge {u,v} in edges(), or kInvalidEdge if absent.
  [[nodiscard]] EdgeId edge_id(Vertex u, Vertex v) const noexcept;

  [[nodiscard]] Edge edge(EdgeId id) const noexcept { return edges_[id]; }

 private:
  void compute_max_degree();

  Vertex n_ = 0;
  std::size_t max_degree_ = 0;
  std::vector<std::size_t> offsets_;  ///< n+1 entries
  std::vector<Vertex> adjacency_;     ///< 2m entries, sorted per vertex
  std::vector<Edge> edges_;           ///< m canonical edges, sorted
};

/// Incremental edge-list accumulator; the generators all funnel through this.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex n = 0) : n_(n) {}

  /// Adds undirected edge {u,v}; grows the vertex count as needed.
  void add_edge(Vertex u, Vertex v);

  /// Ensures at least \p n vertices exist (isolated vertices allowed).
  void ensure_vertices(Vertex n) {
    if (n > n_) n_ = n;
  }

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  [[nodiscard]] Graph build() const { return Graph::from_edges(n_, edges_); }

 private:
  Vertex n_ = 0;
  std::vector<Edge> edges_;
};

/// Disjoint union of graphs (vertex indices shifted); used to assemble
/// multi-component instances before optionally connecting them.
[[nodiscard]] Graph disjoint_union(std::span<const Graph> parts);

}  // namespace decycle::graph
