#include "graph/generators.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace decycle::graph {

Graph path(Vertex n) {
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph cycle(Vertex n) {
  DECYCLE_CHECK_MSG(n >= 3, "a cycle needs at least 3 vertices");
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  b.add_edge(n - 1, 0);
  return b.build();
}

Graph complete(Vertex n) {
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

Graph complete_bipartite(Vertex a, Vertex b) {
  GraphBuilder builder(a + b);
  for (Vertex u = 0; u < a; ++u)
    for (Vertex v = 0; v < b; ++v) builder.add_edge(u, a + v);
  return builder.build();
}

Graph star(Vertex n) {
  DECYCLE_CHECK_MSG(n >= 1, "star needs at least one vertex");
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

Graph grid(Vertex rows, Vertex cols, bool wrap) {
  GraphBuilder b(rows * cols);
  const auto at = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c));
      if (wrap && cols > 2 && c == cols - 1) b.add_edge(at(r, c), at(r, 0));
      if (wrap && rows > 2 && r == rows - 1) b.add_edge(at(r, c), at(0, c));
    }
  }
  return b.build();
}

Graph hypercube(unsigned d) {
  DECYCLE_CHECK_MSG(d < 25, "hypercube dimension too large");
  const Vertex n = Vertex{1} << d;
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v) {
    for (unsigned bit = 0; bit < d; ++bit) {
      const Vertex w = v ^ (Vertex{1} << bit);
      if (v < w) b.add_edge(v, w);
    }
  }
  return b.build();
}

Graph wheel(Vertex n) {
  DECYCLE_CHECK_MSG(n >= 4, "a wheel needs at least 4 vertices");
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v + 1 < n ? v + 1 : 1);
  }
  return b.build();
}

Graph random_tree(Vertex n, util::Rng& rng) {
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) {
    const auto parent = static_cast<Vertex>(rng.next_below(v));
    b.add_edge(parent, v);
  }
  return b.build();
}

Graph erdos_renyi_gnm(Vertex n, std::size_t m, util::Rng& rng) {
  const std::uint64_t possible = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  DECYCLE_CHECK_MSG(m <= possible, "too many edges requested for G(n,m)");
  // Sample distinct edge indices in [0, n(n-1)/2), then decode. Decoding an
  // index i: row u is the largest with u*(n-1) - u*(u-1)/2 <= i (linear scan
  // avoided via direct arithmetic per sample).
  const auto indices = rng.sample_distinct(possible, m);
  GraphBuilder b(n);
  for (const std::uint64_t idx : indices) {
    // Find u such that offset(u) <= idx < offset(u+1), where
    // offset(u) = u*n - u*(u+1)/2 counts pairs with smaller endpoint < u.
    std::uint64_t lo = 0, hi = n;  // candidate u in [lo, hi)
    while (lo + 1 < hi) {
      const std::uint64_t mid = (lo + hi) / 2;
      const std::uint64_t offset = mid * n - mid * (mid + 1) / 2;
      if (offset <= idx) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const std::uint64_t u = lo;
    const std::uint64_t offset = u * n - u * (u + 1) / 2;
    const std::uint64_t v = u + 1 + (idx - offset);
    b.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  b.ensure_vertices(n);
  return b.build();
}

Graph erdos_renyi_gnp(Vertex n, double p, util::Rng& rng) {
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (rng.next_bool(p)) b.add_edge(u, v);
  b.ensure_vertices(n);
  return b.build();
}

Graph random_regular(Vertex n, unsigned d, util::Rng& rng) {
  DECYCLE_CHECK_MSG(static_cast<std::uint64_t>(n) * d % 2 == 0, "n*d must be even");
  DECYCLE_CHECK_MSG(d < n, "degree must be below n");
  // Simplicity probability per attempt is roughly exp(-(d²-1)/4); for the
  // degrees used here that is a few percent, so thousands of attempts make
  // failure astronomically unlikely while staying cheap.
  for (int attempt = 0; attempt < 5000; ++attempt) {
    std::vector<Vertex> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * d);
    for (Vertex v = 0; v < n; ++v)
      for (unsigned i = 0; i < d; ++i) stubs.push_back(v);
    rng.shuffle(std::span<Vertex>(stubs));
    bool simple = true;
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, util::PairHash> seen;
    GraphBuilder b(n);
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const Vertex a = stubs[i], c = stubs[i + 1];
      if (a == c) {
        simple = false;
        break;
      }
      const auto key = std::make_pair<std::uint64_t, std::uint64_t>(std::min(a, c), std::max(a, c));
      if (!seen.insert(key).second) {
        simple = false;
        break;
      }
      b.add_edge(a, c);
    }
    if (simple) return b.build();
  }
  DECYCLE_CHECK_MSG(false, "configuration model failed to produce a simple graph");
  return {};
}

Graph random_bipartite(Vertex a, Vertex b, std::size_t m, util::Rng& rng) {
  const std::uint64_t possible = static_cast<std::uint64_t>(a) * b;
  DECYCLE_CHECK_MSG(m <= possible, "too many edges requested for bipartite graph");
  const auto indices = rng.sample_distinct(possible, m);
  GraphBuilder builder(a + b);
  for (const std::uint64_t idx : indices) {
    const auto u = static_cast<Vertex>(idx / b);
    const auto v = static_cast<Vertex>(a + idx % b);
    builder.add_edge(u, v);
  }
  builder.ensure_vertices(a + b);
  return builder.build();
}

Graph random_connected(Vertex n, std::size_t m, util::Rng& rng) {
  DECYCLE_CHECK_MSG(n >= 1, "need at least one vertex");
  DECYCLE_CHECK_MSG(m + 1 >= n, "connected graph needs at least n-1 edges");
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) {
    const auto parent = static_cast<Vertex>(rng.next_below(v));
    b.add_edge(parent, v);
  }
  std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, util::PairHash> present;
  for (const auto& [x, y] : b.edges()) present.insert({x, y});
  std::size_t extra = m - (n - 1);
  std::size_t guard = 0;
  while (extra > 0) {
    DECYCLE_CHECK_MSG(++guard < 100 * m + 1000, "could not place extra edges (graph too dense?)");
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u == v) continue;
    const auto key = std::make_pair<std::uint64_t, std::uint64_t>(std::min(u, v), std::max(u, v));
    if (!present.insert(key).second) continue;
    b.add_edge(u, v);
    --extra;
  }
  return b.build();
}

Graph circulant(Vertex n, std::uint32_t k) {
  DECYCLE_CHECK_MSG(k >= 1, "circulant needs k >= 1");
  DECYCLE_CHECK_MSG(n >= 2 * std::uint64_t{k} + 1, "circulant requires n >= 2k+1");
  // Emit row by row, each row's partners ascending: direct offsets
  // u+1..u+k first, then (for u < k) the wrap partners u+n-k..n-1 — which
  // start above u+k because n > 2k. The stream is therefore strictly
  // lexicographic and feeds the sort-free CSR build.
  std::vector<Edge> edges;
  edges.reserve(std::size_t{n} * k);
  for (Vertex u = 0; u < n; ++u) {
    const auto direct_hi = static_cast<Vertex>(std::min<std::uint64_t>(n - 1, std::uint64_t{u} + k));
    for (Vertex v = u + 1; v <= direct_hi; ++v) edges.emplace_back(u, v);
    if (u < k) {
      for (Vertex v = static_cast<Vertex>(n - k + u); v < n; ++v) edges.emplace_back(u, v);
    }
  }
  return Graph::from_ordered_edges(n, std::move(edges));
}

}  // namespace decycle::graph
