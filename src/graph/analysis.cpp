#include "graph/analysis.hpp"

#include <deque>

namespace decycle::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex src, std::uint32_t cap) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  std::deque<Vertex> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const Vertex x = queue.front();
    queue.pop_front();
    if (cap != 0 && dist[x] >= cap) continue;
    for (const Vertex y : g.neighbors(x)) {
      if (dist[y] != kUnreachable) continue;
      dist[y] = dist[x] + 1;
      queue.push_back(y);
    }
  }
  return dist;
}

Components connected_components(const Graph& g) {
  Components out;
  out.label.assign(g.num_vertices(), kUnreachable);
  std::deque<Vertex> queue;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (out.label[s] != kUnreachable) continue;
    out.label[s] = out.count;
    queue.push_back(s);
    while (!queue.empty()) {
      const Vertex x = queue.front();
      queue.pop_front();
      for (const Vertex y : g.neighbors(x)) {
        if (out.label[y] != kUnreachable) continue;
        out.label[y] = out.count;
        queue.push_back(y);
      }
    }
    ++out.count;
  }
  return out;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

std::optional<std::vector<char>> bipartition(const Graph& g) {
  std::vector<char> color(g.num_vertices(), -1);
  std::deque<Vertex> queue;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (color[s] != -1) continue;
    color[s] = 0;
    queue.push_back(s);
    while (!queue.empty()) {
      const Vertex x = queue.front();
      queue.pop_front();
      for (const Vertex y : g.neighbors(x)) {
        if (color[y] == -1) {
          color[y] = static_cast<char>(1 - color[x]);
          queue.push_back(y);
        } else if (color[y] == color[x]) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

}  // namespace decycle::graph
