/// \file graph_store.hpp
/// \brief Content-addressed pinned graphs with mutation epochs.
///
/// The detection engine owns graphs through PinnedGraph: an immutable
/// (topology, id assignment) pair stamped with a structural content hash —
/// folded over vertices, edges, and ids exactly in the spirit of the soak's
/// content-addressed instance seeds — plus a monotonically increasing epoch
/// counter. Cached Simulator sessions key on (hash, epoch), so a mutation
/// (IncrementalSession::apply) retires every cached session of a pin with
/// one atomic bump instead of a cache sweep: stale sessions simply never
/// match again and age out of the LRU.
///
/// Pins are shared_ptr-owned so a leased session can co-own its topology:
/// letting a lab cell's topology or a tenant's old snapshot go out of scope
/// can never leave a cached Simulator pointing at freed memory.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace decycle::engine {

/// Structural content hash of (g, ids): folds vertex count, every edge in
/// canonical order, and every node id. Two pins of byte-identical content
/// hash equal — the property that lets sibling lab cells (same family/k/n,
/// different algo) share cached sessions.
[[nodiscard]] std::uint64_t structural_hash(const graph::Graph& g,
                                            const graph::IdAssignment& ids);

/// An immutable graph + id assignment a session can co-own. `epoch` is the
/// only mutable field: bumping it retires every cached session keyed on the
/// old value.
struct PinnedGraph {
  PinnedGraph(graph::Graph g, graph::IdAssignment assignment, std::uint64_t content_hash)
      : graph(std::move(g)), ids(std::move(assignment)), hash(content_hash) {}

  const graph::Graph graph;
  const graph::IdAssignment ids;
  const std::uint64_t hash;
  std::atomic<std::uint64_t> epoch{0};
};

using PinnedGraphPtr = std::shared_ptr<PinnedGraph>;

/// Pins (g, ids) under its structural hash. The graph is moved, never
/// copied twice; callers that already know a content address (e.g. a lab
/// cell seed, itself content-derived) may supply it to skip the O(n + m)
/// hash sweep.
[[nodiscard]] PinnedGraphPtr pin(graph::Graph g, graph::IdAssignment ids,
                                 std::uint64_t content_hash = 0);

}  // namespace decycle::engine
