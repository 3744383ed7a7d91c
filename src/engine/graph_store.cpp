#include "engine/graph_store.hpp"

#include <utility>

#include "util/hash.hpp"

namespace decycle::engine {

namespace {
constexpr std::uint64_t kGraphTag = 0x656e675f67726170ULL;  // "eng_grap"
}  // namespace

std::uint64_t structural_hash(const graph::Graph& g, const graph::IdAssignment& ids) {
  std::uint64_t h = util::splitmix64(kGraphTag);
  h = util::hash_combine(h, g.num_vertices());
  h = util::hash_combine(h, g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    h = util::hash_combine(h, (static_cast<std::uint64_t>(e.first) << 32) | e.second);
  }
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    h = util::hash_combine(h, ids.id_of(v));
  }
  return h;
}

PinnedGraphPtr pin(graph::Graph g, graph::IdAssignment ids, std::uint64_t content_hash) {
  if (content_hash == 0) content_hash = structural_hash(g, ids);
  return std::make_shared<PinnedGraph>(std::move(g), std::move(ids), content_hash);
}

}  // namespace decycle::engine
