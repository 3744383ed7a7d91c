/// \file generators.hpp
/// \brief Deterministic and random graph families used across tests,
/// examples, and experiments.
///
/// All random generators take an explicit Rng so every instance is
/// reproducible from a seed. Vertices are 0..n-1; generators guarantee
/// simple graphs (the builders deduplicate).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace decycle::graph {

/// Path v0-v1-...-v_{n-1}.
[[nodiscard]] Graph path(Vertex n);

/// Cycle on n >= 3 vertices.
[[nodiscard]] Graph cycle(Vertex n);

/// Complete graph K_n.
[[nodiscard]] Graph complete(Vertex n);

/// Complete bipartite graph K_{a,b}; sides are [0,a) and [a,a+b).
[[nodiscard]] Graph complete_bipartite(Vertex a, Vertex b);

/// Star with one hub and n-1 leaves.
[[nodiscard]] Graph star(Vertex n);

/// rows x cols grid; \p wrap makes it a torus.
[[nodiscard]] Graph grid(Vertex rows, Vertex cols, bool wrap = false);

/// d-dimensional hypercube (2^d vertices).
[[nodiscard]] Graph hypercube(unsigned d);

/// Wheel: cycle on n-1 rim vertices [1, n) plus hub 0 adjacent to all of
/// them. Contains Ck for every 3 <= k <= n (rim arcs close through the hub).
[[nodiscard]] Graph wheel(Vertex n);

/// Circulant C_n(1..k): vertex u adjacent to u±j (mod n) for 1 <= j <= k;
/// degree 2k everywhere. Requires n >= 2k+1. Edges are emitted in
/// lexicographic order straight into the streaming sort-free CSR build, so
/// million-node instances construct in O(m) — the scale bench's workhorse
/// family.
[[nodiscard]] Graph circulant(Vertex n, std::uint32_t k);

/// Uniform random labelled tree on n vertices (Prüfer-style attachment).
[[nodiscard]] Graph random_tree(Vertex n, util::Rng& rng);

/// G(n, m): m distinct edges sampled uniformly without replacement.
[[nodiscard]] Graph erdos_renyi_gnm(Vertex n, std::size_t m, util::Rng& rng);

/// G(n, p): each edge present independently with probability p.
[[nodiscard]] Graph erdos_renyi_gnp(Vertex n, double p, util::Rng& rng);

/// Random d-regular graph via the configuration model (resampled until
/// simple). Requires n*d even and d < n.
[[nodiscard]] Graph random_regular(Vertex n, unsigned d, util::Rng& rng);

/// Random bipartite graph with sides a, b and m distinct edges.
[[nodiscard]] Graph random_bipartite(Vertex a, Vertex b, std::size_t m, util::Rng& rng);

/// Random connected graph: random tree plus (m - (n-1)) random extra edges.
[[nodiscard]] Graph random_connected(Vertex n, std::size_t m, util::Rng& rng);

}  // namespace decycle::graph
