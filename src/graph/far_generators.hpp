/// \file far_generators.hpp
/// \brief Instance generators with farness certificates, plus Ck-free families.
///
/// The tester's completeness guarantee (Theorem 1) is conditioned on the
/// input being ε-far from Ck-free in the sparse model: no combination of at
/// most εm edge insertions/deletions yields a Ck-free graph. Insertions never
/// destroy cycles, so the distance is a pure deletion distance, and a family
/// of c pairwise edge-disjoint k-cycles certifies distance >= c (each packed
/// cycle must lose an edge). Every generator here returns that certificate
/// explicitly, so experiment tables report *certified* ε values instead of
/// hoping a random graph is far.
///
/// The Ck-free families back the soundness experiments (T1): the tester must
/// accept them with probability 1. Each family is Ck-free by construction
/// (argument in the per-generator comment) and additionally audited by the
/// exact oracle in tests.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace decycle::graph {

/// A generated instance together with its farness certificate.
struct FarInstance {
  Graph graph;
  std::vector<std::vector<Vertex>> planted;  ///< pairwise edge-disjoint k-cycles
  std::string description;

  /// The instance is ε-far from Ck-free for every ε < certified_epsilon():
  /// |planted| edge-disjoint cycles force |planted| deletions.
  [[nodiscard]] double certified_epsilon() const noexcept {
    return graph.num_edges() == 0
               ? 0.0
               : static_cast<double>(planted.size()) / static_cast<double>(graph.num_edges());
  }
};

struct PlantedOptions {
  unsigned k = 5;                   ///< cycle length
  std::size_t num_cycles = 10;      ///< c — planted vertex-disjoint k-cycles
  std::size_t padding_leaves = 0;   ///< cycle-free padding edges (leaf hangs) to dilute ε
  bool connect = true;              ///< bridge everything into one component
  bool shuffle = true;              ///< random vertex relabeling
};

/// c vertex-disjoint k-cycles + leaf padding + bridges. The graph contains
/// exactly c k-cycles (bridges and leaf edges are cut edges), so the
/// certificate is tight: deletion distance == c.
[[nodiscard]] FarInstance planted_cycles_instance(const PlantedOptions& opt, util::Rng& rng);

struct NoisyFarOptions {
  unsigned k = 5;
  std::size_t num_cycles = 10;
  Vertex background_n = 200;       ///< vertices of the girth-(>k) background
  std::size_t background_m = 400;  ///< target background edges
};

/// Planted edge-disjoint k-cycles embedded in a random background of girth
/// > k. Background edges alone contain no Ck; cycles are planted on random
/// vertex tuples using only fresh edges, so they stay pairwise edge-disjoint
/// and the certificate |planted| holds even though planted/background edge
/// combinations may create additional k-cycles (which only adds farness).
[[nodiscard]] FarInstance noisy_far_instance(const NoisyFarOptions& opt, util::Rng& rng);

/// Smallest s >= max(wanted, 2) with gcd(s, k-1) == 1: the layer size
/// layered_instance accepts for \p k. Requires k >= 3.
[[nodiscard]] Vertex coprime_layer_size(std::uint64_t wanted, unsigned k);

/// Dense layered instance: k layers of s vertices; for every shift
/// σ ∈ {0..shifts-1} and start i, the vertices L_j[(i + jσ) mod s] form a
/// k-cycle. All s·shifts cycles are pairwise edge-disjoint (requires
/// gcd(s, k-1) = 1, checked), every vertex lies on `shifts` planted cycles,
/// and degrees are 2·shifts. This is the Behrend-graph *substitute* (see
/// EXPERIMENTS.md): it reproduces the operative property — many edge-disjoint
/// k-cycles crossing at every vertex — that defeats the sampling techniques
/// of [20] for k >= 5.
[[nodiscard]] FarInstance layered_instance(unsigned k, Vertex layer_size, unsigned shifts,
                                           util::Rng& rng);

/// Random graph with girth strictly greater than \p k (hence Ck-free):
/// edges are added only between vertices at current distance >= k. May stop
/// short of m_target on dense requests.
[[nodiscard]] Graph high_girth_graph(Vertex n, std::size_t m_target, unsigned k, util::Rng& rng);

/// Ck-free families for the soundness experiments.
enum class CkFreeFamily {
  kForest,            ///< no cycles at all
  kBipartite,         ///< no odd cycles (valid for odd k)
  kHighGirth,         ///< girth > k
  kCliqueBlowup,      ///< disjoint K_{k-1} components + bridges: max cycle length k-1
  kSubdividedClique,  ///< K_m with edges subdivided t-fold, t chosen so t does not divide k
};

[[nodiscard]] const char* family_name(CkFreeFamily family) noexcept;

/// The families applicable for a given k (kBipartite only when k is odd).
[[nodiscard]] std::vector<CkFreeFamily> ck_free_families_for(unsigned k);

/// Builds an instance of the family with roughly \p n vertices.
[[nodiscard]] Graph ck_free_instance(CkFreeFamily family, unsigned k, Vertex n, util::Rng& rng);

}  // namespace decycle::graph
