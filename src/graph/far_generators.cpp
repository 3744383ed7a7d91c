#include "graph/far_generators.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace decycle::graph {

namespace {

/// Applies a random permutation to vertex labels of graph + planted cycles.
void shuffle_labels(Graph& g, std::vector<std::vector<Vertex>>& planted, util::Rng& rng) {
  const auto perm = rng.permutation(g.num_vertices());
  GraphBuilder b(g.num_vertices());
  for (const auto& [u, v] : g.edges()) b.add_edge(perm[u], perm[v]);
  g = b.build();
  for (auto& cycle : planted)
    for (auto& v : cycle) v = perm[v];
}

}  // namespace

FarInstance planted_cycles_instance(const PlantedOptions& opt, util::Rng& rng) {
  DECYCLE_CHECK_MSG(opt.k >= 3, "cycle length must be at least 3");
  DECYCLE_CHECK_MSG(opt.num_cycles >= 1, "need at least one planted cycle");

  FarInstance out;
  GraphBuilder b;
  const auto k = static_cast<Vertex>(opt.k);
  for (std::size_t c = 0; c < opt.num_cycles; ++c) {
    const auto base = static_cast<Vertex>(c * opt.k);
    std::vector<Vertex> planted_cycle;
    planted_cycle.reserve(opt.k);
    for (Vertex j = 0; j < k; ++j) {
      b.add_edge(base + j, base + (j + 1) % k);
      planted_cycle.push_back(base + j);
    }
    out.planted.push_back(std::move(planted_cycle));
  }

  Vertex next = static_cast<Vertex>(opt.num_cycles * opt.k);
  if (opt.connect) {
    // One bridge between consecutive cycles; bridges are cut edges.
    for (std::size_t c = 0; c + 1 < opt.num_cycles; ++c) {
      b.add_edge(static_cast<Vertex>(c * opt.k), static_cast<Vertex>((c + 1) * opt.k));
    }
  }
  for (std::size_t p = 0; p < opt.padding_leaves; ++p) {
    // A fresh leaf hung on a random existing vertex: cycle-free padding.
    const auto host = static_cast<Vertex>(rng.next_below(next));
    b.add_edge(host, next);
    ++next;
  }

  Graph g = b.build();
  if (opt.shuffle) {
    shuffle_labels(g, out.planted, rng);
  }
  out.graph = std::move(g);
  out.description = "planted(" + std::to_string(opt.num_cycles) + "xC" + std::to_string(opt.k) +
                    ", pad=" + std::to_string(opt.padding_leaves) + ")";
  return out;
}

Graph high_girth_graph(Vertex n, std::size_t m_target, unsigned k, util::Rng& rng) {
  DECYCLE_CHECK_MSG(n >= 2, "need at least two vertices");
  GraphBuilder b(n);
  // Incremental insertion: adding {u,v} creates cycles of length
  // dist(u,v) + 1 and longer only, so requiring dist(u,v) >= k keeps all
  // cycles strictly longer than k.
  std::vector<Edge> accepted;
  Graph current = b.build();
  std::size_t stale = 0;
  const std::size_t max_stale = 50 * m_target + 1000;
  while (accepted.size() < m_target && stale < max_stale) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (u == v || current.has_edge(u, v)) {
      ++stale;
      continue;
    }
    const auto dist = bfs_distances(current, u, k - 1);
    if (dist[v] != kUnreachable) {  // dist(u,v) <= k-1: would close a short cycle
      ++stale;
      continue;
    }
    accepted.emplace_back(u, v);
    current = Graph::from_edges(n, accepted);  // rebuild; fine at generator scale
    stale = 0;
  }
  return current;
}

FarInstance noisy_far_instance(const NoisyFarOptions& opt, util::Rng& rng) {
  DECYCLE_CHECK_MSG(opt.k >= 3, "cycle length must be at least 3");
  DECYCLE_CHECK_MSG(opt.background_n >= static_cast<Vertex>(2 * opt.k),
                    "background too small for planted cycles");

  Graph background = high_girth_graph(opt.background_n, opt.background_m, opt.k, rng);

  std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, util::PairHash> used;
  for (const auto& [u, v] : background.edges()) used.insert({u, v});

  GraphBuilder b(opt.background_n);
  for (const auto& [u, v] : background.edges()) b.add_edge(u, v);

  FarInstance out;
  std::size_t attempts = 0;
  while (out.planted.size() < opt.num_cycles) {
    DECYCLE_CHECK_MSG(++attempts < 200 * opt.num_cycles + 1000,
                      "could not plant edge-disjoint cycles (instance too dense)");
    auto sample = rng.sample_distinct(opt.background_n, opt.k);
    std::vector<Vertex> cycle(sample.begin(), sample.end());
    bool fresh = true;
    for (std::size_t i = 0; i < cycle.size() && fresh; ++i) {
      const Vertex a = cycle[i];
      const Vertex c = cycle[(i + 1) % cycle.size()];
      if (used.contains({std::min<std::uint64_t>(a, c), std::max<std::uint64_t>(a, c)})) {
        fresh = false;
      }
    }
    if (!fresh) continue;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const Vertex a = cycle[i];
      const Vertex c = cycle[(i + 1) % cycle.size()];
      used.insert({std::min<std::uint64_t>(a, c), std::max<std::uint64_t>(a, c)});
      b.add_edge(a, c);
    }
    out.planted.push_back(std::move(cycle));
  }

  out.graph = b.build();
  out.description = "noisy(" + std::to_string(opt.num_cycles) + "xC" + std::to_string(opt.k) +
                    " over girth>" + std::to_string(opt.k) + " background)";
  return out;
}

Vertex coprime_layer_size(std::uint64_t wanted, unsigned k) {
  DECYCLE_CHECK_MSG(k >= 3, "cycle length must be at least 3");
  std::uint64_t s = std::max<std::uint64_t>(wanted, 2);
  while (std::gcd(s, std::uint64_t{k} - 1) != 1) ++s;
  return static_cast<Vertex>(s);
}

FarInstance layered_instance(unsigned k, Vertex layer_size, unsigned shifts, util::Rng& rng) {
  DECYCLE_CHECK_MSG(k >= 3, "cycle length must be at least 3");
  DECYCLE_CHECK_MSG(shifts >= 1 && shifts <= layer_size, "shifts must be in [1, layer_size]");
  DECYCLE_CHECK_MSG(std::gcd<std::uint64_t>(layer_size, k - 1) == 1,
                    "layer_size must be coprime with k-1 for edge-disjointness");

  const Vertex s = layer_size;
  const auto vertex_at = [s](unsigned layer, std::uint64_t idx) {
    return static_cast<Vertex>(layer * s + idx % s);
  };

  FarInstance out;
  GraphBuilder b(static_cast<Vertex>(k) * s);
  for (unsigned sigma = 0; sigma < shifts; ++sigma) {
    for (Vertex i = 0; i < s; ++i) {
      std::vector<Vertex> cycle;
      cycle.reserve(k);
      for (unsigned j = 0; j < k; ++j) {
        cycle.push_back(vertex_at(j, static_cast<std::uint64_t>(i) +
                                         static_cast<std::uint64_t>(j) * sigma));
      }
      for (unsigned j = 0; j < k; ++j) b.add_edge(cycle[j], cycle[(j + 1) % k]);
      out.planted.push_back(std::move(cycle));
    }
  }
  Graph g = b.build();
  // Edge-disjointness is structural; make it a hard failure if the
  // construction is ever mis-parameterized.
  DECYCLE_CHECK_MSG(g.num_edges() == static_cast<std::size_t>(k) * s * shifts,
                    "layered instance lost edges: planted cycles not edge-disjoint");
  shuffle_labels(g, out.planted, rng);
  out.graph = std::move(g);
  out.description = "layered(k=" + std::to_string(k) + ", s=" + std::to_string(layer_size) +
                    ", shifts=" + std::to_string(shifts) + ")";
  return out;
}

const char* family_name(CkFreeFamily family) noexcept {
  switch (family) {
    case CkFreeFamily::kForest: return "forest";
    case CkFreeFamily::kBipartite: return "bipartite";
    case CkFreeFamily::kHighGirth: return "high-girth";
    case CkFreeFamily::kCliqueBlowup: return "K(k-1)-blowup";
    case CkFreeFamily::kSubdividedClique: return "subdivided-clique";
  }
  return "?";
}

std::vector<CkFreeFamily> ck_free_families_for(unsigned k) {
  std::vector<CkFreeFamily> out{CkFreeFamily::kForest, CkFreeFamily::kHighGirth,
                                CkFreeFamily::kCliqueBlowup, CkFreeFamily::kSubdividedClique};
  if (k % 2 == 1) out.push_back(CkFreeFamily::kBipartite);
  return out;
}

namespace {

/// Smallest t >= 2 (from a fixed prime list) that does not divide k; cycle
/// lengths in the t-subdivision of any graph are multiples of t, so the
/// subdivision is Ck-free.
unsigned subdivision_factor(unsigned k) {
  for (const unsigned t : {2U, 3U, 5U, 7U, 11U, 13U}) {
    if (k % t != 0) return t;
  }
  DECYCLE_CHECK_MSG(false, "no subdivision factor for this k (k too composite)");
  return 0;
}

Graph subdivided_clique(unsigned k, Vertex n_target) {
  const unsigned t = subdivision_factor(k);
  // K_m subdivided t-fold has m + m(m-1)/2 * (t-1) vertices; pick the largest
  // m fitting in n_target (at least 3 so cycles exist pre-subdivision).
  Vertex m = 3;
  while (true) {
    const Vertex next = m + 1;
    const std::uint64_t size = next + static_cast<std::uint64_t>(next) * (next - 1) / 2 * (t - 1);
    if (size > n_target) break;
    m = next;
    if (m > 2000) break;
  }
  GraphBuilder b(m);
  Vertex fresh = m;
  for (Vertex u = 0; u < m; ++u) {
    for (Vertex v = u + 1; v < m; ++v) {
      Vertex prev = u;
      for (unsigned seg = 1; seg < t; ++seg) {
        b.add_edge(prev, fresh);
        prev = fresh;
        ++fresh;
      }
      b.add_edge(prev, v);
    }
  }
  return b.build();
}

Graph clique_blowup(unsigned k, Vertex n_target) {
  // Disjoint K_{k-1} components joined by bridges: every cycle lives inside
  // one clique, so the longest cycle has k-1 vertices.
  const auto part = static_cast<Vertex>(k - 1);
  const Vertex parts = std::max<Vertex>(1, n_target / part);
  GraphBuilder b(parts * part);
  for (Vertex p = 0; p < parts; ++p) {
    const Vertex base = p * part;
    for (Vertex u = 0; u < part; ++u)
      for (Vertex v = u + 1; v < part; ++v) b.add_edge(base + u, base + v);
    if (p + 1 < parts) b.add_edge(base, base + part);  // bridge (cut edge)
  }
  b.ensure_vertices(parts * part);
  return b.build();
}

}  // namespace

Graph ck_free_instance(CkFreeFamily family, unsigned k, Vertex n, util::Rng& rng) {
  DECYCLE_CHECK_MSG(k >= 3, "cycle length must be at least 3");
  DECYCLE_CHECK_MSG(n >= 4, "instance too small");
  switch (family) {
    case CkFreeFamily::kForest:
      return random_tree(n, rng);
    case CkFreeFamily::kBipartite: {
      DECYCLE_CHECK_MSG(k % 2 == 1, "bipartite family only applies to odd k");
      const Vertex a = n / 2;
      const Vertex b = n - a;
      const std::size_t m = std::min<std::size_t>(static_cast<std::size_t>(a) * b, 2 * n);
      return random_bipartite(a, b, m, rng);
    }
    case CkFreeFamily::kHighGirth:
      return high_girth_graph(n, 2 * static_cast<std::size_t>(n), k, rng);
    case CkFreeFamily::kCliqueBlowup:
      return clique_blowup(k, n);  // for k=3 this degenerates to a K_2 forest, still C3-free
    case CkFreeFamily::kSubdividedClique:
      return subdivided_clique(k, n);
  }
  DECYCLE_CHECK_MSG(false, "unknown family");
  return {};
}

}  // namespace decycle::graph
