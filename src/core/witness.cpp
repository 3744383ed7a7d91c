#include "core/witness.hpp"

#include "graph/subgraph.hpp"
#include "util/check.hpp"

namespace decycle::core {

std::vector<graph::Vertex> validated_witness_vertices(const graph::Graph& g,
                                                      const graph::IdAssignment& ids,
                                                      std::span<const graph::NodeId> cycle_ids) {
  DECYCLE_CHECK_MSG(cycle_ids.size() >= 3, "witness cycle too short");
  std::vector<graph::Vertex> vertices;
  vertices.reserve(cycle_ids.size());
  for (const graph::NodeId id : cycle_ids) {
    DECYCLE_CHECK_MSG(ids.has_id(id), "witness references an unknown node ID");
    vertices.push_back(ids.vertex_of(id));
  }
  DECYCLE_CHECK_MSG(graph::validate_cycle(g, vertices),
                    "soundness violation: rejected without a real k-cycle witness");
  return vertices;
}

}  // namespace decycle::core
