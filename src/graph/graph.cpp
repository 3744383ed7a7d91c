#include "graph/graph.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace decycle::graph {

void Graph::compute_max_degree() {
  for (Vertex v = 0; v < n_; ++v) {
    max_degree_ = std::max(max_degree_, offsets_[v + 1] - offsets_[v]);
  }
}

Graph Graph::from_edges(Vertex n, std::span<const Edge> edges) {
  Graph g;
  g.n_ = n;

  std::vector<Edge> canon;
  canon.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    DECYCLE_CHECK_MSG(a != b, "self-loops are not allowed in a simple graph");
    DECYCLE_CHECK_MSG(a < n && b < n, "edge endpoint out of range");
    canon.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  g.edges_ = std::move(canon);

  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [a, b] : g.edges_) {
    ++g.offsets_[a + 1];
    ++g.offsets_[b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];

  g.adjacency_.resize(2 * g.edges_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [a, b] : g.edges_) {
    g.adjacency_[cursor[a]++] = b;
    g.adjacency_[cursor[b]++] = a;
  }
  for (Vertex v = 0; v < n; ++v) {
    auto nb = std::span<Vertex>(g.adjacency_.data() + g.offsets_[v],
                                g.adjacency_.data() + g.offsets_[v + 1]);
    std::sort(nb.begin(), nb.end());
  }
  g.compute_max_degree();
  return g;
}

Graph Graph::from_ordered_edges(Vertex n, std::vector<Edge> edges) {
  Graph g;
  g.n_ = n;

  // Pass 1: validate the ordering contract and count degrees. Strict
  // lexicographic increase subsumes dedup.
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  Edge prev{0, 0};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [a, b] = edges[i];
    // Each message names the offending edge index so a caller staring at a
    // million-edge stream knows where to look. The strings are built only on
    // failure (DECYCLE_CHECK_MSG evaluates msg in the failing branch).
    DECYCLE_CHECK_MSG(a < b, "from_ordered_edges: edge " + std::to_string(i) + " (" +
                                 std::to_string(a) + "," + std::to_string(b) +
                                 ") must be canonical (u < v)");
    DECYCLE_CHECK_MSG(b < n, "from_ordered_edges: edge " + std::to_string(i) + " (" +
                                 std::to_string(a) + "," + std::to_string(b) +
                                 ") endpoint out of range (n=" + std::to_string(n) + ")");
    DECYCLE_CHECK_MSG(i == 0 || (Edge{a, b} > prev),
                      "from_ordered_edges: edge " + std::to_string(i) + " (" +
                          std::to_string(a) + "," + std::to_string(b) +
                          ") must strictly increase lexicographically (duplicate or unsorted; "
                          "previous (" +
                          std::to_string(prev.first) + "," + std::to_string(prev.second) + "))");
    prev = {a, b};
    ++g.offsets_[a + 1];
    ++g.offsets_[b + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];

  // Pass 2: cursor fill. Visiting edges in lexicographic order appends each
  // vertex's partners in ascending order on both sides — for fixed u the
  // seconds ascend, and for fixed v the firsts ascend across the stream —
  // so the adjacency is born sorted and needs no per-vertex sort.
  g.adjacency_.resize(2 * edges.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    g.adjacency_[cursor[a]++] = b;
    g.adjacency_[cursor[b]++] = a;
  }
  g.edges_ = std::move(edges);
  g.compute_max_degree();
  return g;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= n_ || v >= n_ || u == v) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

EdgeId Graph::edge_id(Vertex u, Vertex v) const noexcept {
  const Edge key{std::min(u, v), std::max(u, v)};
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), key);
  if (it == edges_.end() || *it != key) return kInvalidEdge;
  return static_cast<EdgeId>(it - edges_.begin());
}

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  DECYCLE_CHECK_MSG(u != v, "self-loops are not allowed in a simple graph");
  edges_.emplace_back(std::min(u, v), std::max(u, v));
  n_ = std::max(n_, static_cast<Vertex>(std::max(u, v) + 1));
}

Graph disjoint_union(std::span<const Graph> parts) {
  GraphBuilder builder;
  Vertex base = 0;
  for (const Graph& part : parts) {
    for (const auto& [a, b] : part.edges()) builder.add_edge(base + a, base + b);
    base += part.num_vertices();
    builder.ensure_vertices(base);
  }
  return builder.build();
}

}  // namespace decycle::graph
