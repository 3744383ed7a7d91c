/// \file analysis.hpp
/// \brief Structural graph queries shared by generators, tests and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace decycle::graph {

inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// BFS hop distances from \p src; kUnreachable for disconnected vertices.
/// \p cap (if non-zero) stops expansion beyond that distance.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex src,
                                                       std::uint32_t cap = 0);

struct Components {
  std::vector<std::uint32_t> label;  ///< per-vertex component id
  std::uint32_t count = 0;
};

[[nodiscard]] Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// Two-colorability test; returns the coloring if bipartite.
[[nodiscard]] std::optional<std::vector<char>> bipartition(const Graph& g);

}  // namespace decycle::graph
