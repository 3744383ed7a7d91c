#include "soak/space.hpp"

#include <algorithm>

#include "engine/lanes.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "lab/json.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::soak {

namespace {

constexpr std::uint64_t kInstanceTag = 0x736f616b5f763120ULL;  // "soak_v1 "

/// Adds \p count fresh vertex-disjoint C_k's to \p base, each bridged to a
/// random existing vertex so the composition stays connected-ish. Fresh
/// vertices + a cut bridge: the planted cycles are genuine C_k subgraphs and
/// never merge with base cycles.
graph::Graph plant_cycles(const graph::Graph& base, unsigned k, std::size_t count,
                          util::Rng& rng) {
  graph::GraphBuilder b(base.num_vertices());
  for (const graph::Edge& e : base.edges()) b.add_edge(e.first, e.second);
  for (std::size_t c = 0; c < count; ++c) {
    const graph::Vertex first = b.num_vertices();
    b.ensure_vertices(first + k);
    for (unsigned i = 0; i < k; ++i) {
      b.add_edge(first + i, first + (i + 1) % k);
    }
    if (base.num_vertices() > 0) {
      b.add_edge(first, static_cast<graph::Vertex>(rng.next_below(base.num_vertices())));
    }
  }
  return b.build();
}

struct BaseDraw {
  graph::Graph graph;
  std::string description;
  double certified_epsilon = 0.0;  ///< >0 only for far-generator bases
  bool allow_planting = true;      ///< far bases keep their certificate untouched
};

BaseDraw draw_base(unsigned k, graph::Vertex n, util::Rng& rng) {
  BaseDraw out;
  const std::uint64_t shape = rng.next_below(12);
  const std::string ns = std::to_string(n);
  switch (shape) {
    case 0: {
      const std::size_t m = n + rng.next_below(2 * std::uint64_t{n});
      out.graph = graph::erdos_renyi_gnm(n, m, rng);
      out.description = "gnm(n=" + ns + ",m=" + std::to_string(m) + ")";
      return out;
    }
    case 1: {
      const graph::Vertex even_n = n + (n % 2);
      const unsigned d = 3 + static_cast<unsigned>(rng.next_below(2));
      out.graph = graph::random_regular(even_n, d, rng);
      out.description = std::to_string(d) + "-regular(n=" + std::to_string(even_n) + ")";
      return out;
    }
    case 2:
      out.graph = graph::random_tree(n, rng);
      out.description = "tree(n=" + ns + ")";
      return out;
    case 3: {
      const graph::Vertex a = n / 2;
      const graph::Vertex b = n - a;
      const std::size_t m = std::min<std::size_t>(2 * std::size_t{n},
                                                  std::size_t{a} * std::size_t{b});
      out.graph = graph::random_bipartite(a, b, m, rng);
      out.description = "bipartite(" + std::to_string(a) + "+" + std::to_string(b) + ")";
      return out;
    }
    case 4: {
      const std::size_t m = n - 1 + rng.next_below(n);
      out.graph = graph::random_connected(n, m, rng);
      out.description = "connected(n=" + ns + ",m=" + std::to_string(m) + ")";
      return out;
    }
    case 5: {
      const graph::Vertex side = 3 + static_cast<graph::Vertex>(rng.next_below(4));
      out.graph = graph::grid(side, side, rng.next_bool(0.25));
      out.description = "grid(" + std::to_string(side) + "x" + std::to_string(side) + ")";
      return out;
    }
    case 6:
      out.graph = graph::cycle(std::max<graph::Vertex>(n, 3));
      out.description = "cycle(n=" + ns + ")";
      return out;
    case 7:
      out.graph = graph::high_girth_graph(n, 2 * std::size_t{n}, k, rng);
      out.description = "highgirth(n=" + ns + ")";
      return out;
    case 8: {
      const graph::CkFreeFamily family =
          k >= 4 ? graph::CkFreeFamily::kCliqueBlowup : graph::CkFreeFamily::kForest;
      out.graph = graph::ck_free_instance(family, k, n, rng);
      out.description = std::string(graph::family_name(family)) + "(n=" + ns + ")";
      return out;
    }
    case 9: {
      graph::PlantedOptions opt;
      opt.k = k;
      opt.num_cycles = std::max<std::size_t>(1, n / k);
      opt.padding_leaves = rng.next_below(n / 2 + 1);
      graph::FarInstance far = graph::planted_cycles_instance(opt, rng);
      out.certified_epsilon = far.certified_epsilon();
      out.description = "planted(c=" + std::to_string(opt.num_cycles) + ")";
      out.graph = std::move(far.graph);
      out.allow_planting = false;
      return out;
    }
    case 10: {
      graph::NoisyFarOptions opt;
      opt.k = k;
      opt.num_cycles = std::max<std::size_t>(1, n / 16);
      opt.background_n = std::max<graph::Vertex>(n, 2 * k);  // generator precondition
      opt.background_m = 2 * std::size_t{n};
      graph::FarInstance far = graph::noisy_far_instance(opt, rng);
      out.certified_epsilon = far.certified_epsilon();
      out.description = "noisy(c=" + std::to_string(opt.num_cycles) + ")";
      out.graph = std::move(far.graph);
      out.allow_planting = false;
      return out;
    }
    default: {
      const graph::Vertex layer = graph::coprime_layer_size(std::max<graph::Vertex>(n / k, 2), k);
      graph::FarInstance far = graph::layered_instance(k, layer, 2, rng);
      out.certified_epsilon = far.certified_epsilon();
      out.description = "layered(s=" + std::to_string(layer) + ")";
      out.graph = std::move(far.graph);
      out.allow_planting = false;
      return out;
    }
  }
}

}  // namespace

std::string SoakScenario::key() const {
  std::string out = "k=" + std::to_string(k);
  out += " eps=" + lab::json_double(epsilon);
  out += " reps=" + std::to_string(repetitions);
  out += " budget=" + budget.name();
  out += " track=" + std::to_string(track);
  out += " adversary=" + adversary.name();
  out += " seed=" + std::to_string(seed);
  return out;
}

std::string SoakSpace::validate() const {
  const auto window = [](auto max, auto min_v, auto max_v, const char* what) {
    std::string err;
    if (max < min_v || max > max_v) {
      err = std::string("soak space: ") + what + " bounds [" + std::to_string(min_v) + ", " +
            std::to_string(max) + "] must satisfy " + std::to_string(min_v) + " <= max_" + what +
            " <= " + std::to_string(max_v);
    }
    return err;
  };
  std::string err = window(max_k, kMinK, kMaxK, "k");
  if (err.empty()) err = window(max_n, kMinN, kMaxN, "n");
  return err;
}

std::uint64_t SoakSpace::instance_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  // Content-addressed exactly like lab cell seeds: fold the literal identity
  // string, so the derivation is pinned by what the instance *is*, not by
  // incidental code structure. tests/lab/seed_stability_test.cpp pins golden
  // values — changing this fold shifts every campaign and nightly repro.
  const std::string id =
      "soak/v1 seed=" + std::to_string(campaign_seed) + " instance=" + std::to_string(index);
  return engine::fold_seed(util::splitmix64(kInstanceTag), id);
}

SoakInstance SoakSpace::draw(std::uint64_t campaign_seed, std::uint64_t index) const {
  const std::string err = validate();
  DECYCLE_CHECK_MSG(err.empty(), err);
  SoakInstance inst;
  inst.index = index;
  inst.instance_seed = instance_seed(campaign_seed, index);
  util::Rng rng(inst.instance_seed);

  SoakScenario& s = inst.scenario;
  s.k = kMinK + static_cast<unsigned>(rng.next_below(max_k - kMinK + 1));
  static constexpr double kEpsilons[] = {0.125, 0.25, 0.5};
  s.epsilon = kEpsilons[rng.next_below(3)];
  const graph::Vertex n =
      kMinN + static_cast<graph::Vertex>(rng.next_below(max_n - kMinN + 1));

  // Detector knobs. Budget "none" forces track 0: that pair is the exact
  // threshold regime the differential can pin against the oracle, so it gets
  // a dedicated slice of the space instead of requiring two independent
  // lucky draws.
  s.repetitions = rng.next_bool(kDefaultRepsProbability)
                      ? 0
                      : static_cast<std::size_t>(1) << rng.next_below(3);  // 1, 2, 4
  const std::uint64_t budget_shape = rng.next_below(4);
  if (budget_shape == 0) {
    s.budget = core::threshold::BudgetSchedule::none();
    s.track = 0;
  } else if (budget_shape == 1) {
    s.budget = core::threshold::BudgetSchedule::parse("2,4,8");
    s.track = 2 + rng.next_below(7);
  } else {
    s.budget = core::threshold::BudgetSchedule::constant(4u << rng.next_below(3));  // 4, 8, 16
    s.track = rng.next_bool(0.25) ? 0 : 2 + rng.next_below(7);
  }
  if (rng.next_bool(0.5)) {
    static constexpr lab::AdversarySpec::Kind kKinds[] = {lab::AdversarySpec::Kind::kUniform,
                                                          lab::AdversarySpec::Kind::kOneWay,
                                                          lab::AdversarySpec::Kind::kLate};
    static constexpr double kRates[] = {0.1, 0.25, 0.5};
    s.adversary.kind = kKinds[rng.next_below(3)];
    s.adversary.rate = kRates[rng.next_below(3)];
  }

  BaseDraw base = draw_base(s.k, n, rng);
  inst.base = std::move(base.description);
  if (base.allow_planting && rng.next_bool(0.5)) {
    const std::size_t planted = 1 + rng.next_below(3);
    inst.graph = plant_cycles(base.graph, s.k, planted, rng);
    inst.base += "+";
    inst.base += std::to_string(planted);
    inst.base += "xC";
    inst.base += std::to_string(s.k);
  } else {
    inst.graph = std::move(base.graph);
  }
  inst.certified_far = base.certified_epsilon >= s.epsilon;

  s.seed = rng();
  return inst;
}

}  // namespace decycle::soak
