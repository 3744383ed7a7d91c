#include "incremental/incremental.hpp"

#include <utility>

#include "util/check.hpp"

namespace decycle::incremental {

// ---------------------------------------------------------------------------
// ForestConnectivity
// ---------------------------------------------------------------------------

void ForestConnectivity::reset(graph::Vertex n) {
  uf_parent_.resize(n);
  for (graph::Vertex v = 0; v < n; ++v) uf_parent_[v] = v;
  uf_rank_.assign(n, 0);
  comp_size_.assign(n, 1);
  tree_parent_.assign(n, graph::kInvalidVertex);
  stamp_.assign(n, 0);
  stamp_round_ = 0;
  witness_.clear();
  path_v_.clear();
  inserts_ = 0;
  closures_ = 0;
}

graph::Vertex ForestConnectivity::find(graph::Vertex v) {
  // Path halving: one pass, no stack, same amortized bound as full
  // compression and friendlier to the branch predictor on long streams.
  while (uf_parent_[v] != v) {
    uf_parent_[v] = uf_parent_[uf_parent_[v]];
    v = uf_parent_[v];
  }
  return v;
}

void ForestConnectivity::reroot(graph::Vertex v) {
  graph::Vertex prev = graph::kInvalidVertex;
  graph::Vertex cur = v;
  while (cur != graph::kInvalidVertex) {
    const graph::Vertex next = tree_parent_[cur];
    tree_parent_[cur] = prev;
    prev = cur;
    cur = next;
  }
}

void ForestConnectivity::link(graph::Vertex u, graph::Vertex v, graph::Vertex root_u,
                              graph::Vertex root_v) {
  // Forest: re-root the smaller tree at v, then hang it off u — the
  // small-to-large choice bounds total re-rooting work by O(n log n) over
  // any insertion sequence.
  reroot(v);
  tree_parent_[v] = u;
  // Union-find: by rank, component size kept at the surviving root.
  const std::uint32_t total = comp_size_[root_u] + comp_size_[root_v];
  if (uf_rank_[root_u] < uf_rank_[root_v]) std::swap(root_u, root_v);
  uf_parent_[root_v] = root_u;
  if (uf_rank_[root_u] == uf_rank_[root_v]) ++uf_rank_[root_u];
  comp_size_[root_u] = total;
}

bool ForestConnectivity::insert_fast(graph::Vertex u, graph::Vertex v) {
  ++inserts_;
  graph::Vertex ru = find(u);
  graph::Vertex rv = find(v);
  if (ru == rv) {
    ++closures_;
    return true;
  }
  if (comp_size_[ru] < comp_size_[rv]) {
    std::swap(u, v);
    std::swap(ru, rv);
  }
  link(u, v, ru, rv);
  return false;
}

void ForestConnectivity::extract_witness(graph::Vertex u, graph::Vertex v) {
  // Mark the u → root tree path, then walk v upward until the first marked
  // vertex: that is the meeting point (at worst the root, which both walks
  // reach — u and v share a tree here).
  ++stamp_round_;
  for (graph::Vertex w = u; w != graph::kInvalidVertex; w = tree_parent_[w]) {
    stamp_[w] = stamp_round_;
  }
  path_v_.clear();
  graph::Vertex meet = v;
  while (stamp_[meet] != stamp_round_) {
    path_v_.push_back(meet);
    meet = tree_parent_[meet];
  }
  // Cycle = u, parent(u), ..., meet, then back down the v side: consecutive
  // vertices are tree edges, and the final v closes to u through the
  // inserted edge.
  witness_.clear();
  for (graph::Vertex w = u;; w = tree_parent_[w]) {
    witness_.push_back(w);
    if (w == meet) break;
  }
  for (auto it = path_v_.rbegin(); it != path_v_.rend(); ++it) witness_.push_back(*it);
}

InsertVerdict ForestConnectivity::insert(graph::Vertex u, graph::Vertex v) {
  const graph::Vertex n = num_vertices();
  DECYCLE_CHECK_MSG(u < n && v < n, "incremental insert: endpoint out of range");
  DECYCLE_CHECK_MSG(u != v, "incremental insert: self-loop");
  ++inserts_;
  graph::Vertex ru = find(u);
  graph::Vertex rv = find(v);
  if (ru == rv) {
    ++closures_;
    extract_witness(u, v);
    return {true, witness_};
  }
  if (comp_size_[ru] < comp_size_[rv]) {
    std::swap(u, v);
    std::swap(ru, rv);
  }
  link(u, v, ru, rv);
  return {false, {}};
}

}  // namespace decycle::incremental
