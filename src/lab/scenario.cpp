#include "lab/scenario.hpp"

#include <algorithm>

#include "engine/lanes.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "lab/json.hpp"
#include "util/check.hpp"
#include "util/kv.hpp"

namespace decycle::lab {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw util::CheckError(msg); }

/// The cycle lengths every family builds and every matrix sweeps.
constexpr unsigned kMinK = 3;
constexpr unsigned kMaxK = 64;

std::string known_family_list() {
  std::string out;
  for (const FamilyInfo& info : known_families()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

// --- graph family registry -----------------------------------------------

struct FamilyEntry {
  FamilyInfo info;
  /// Empty string = buildable; otherwise the reason it is not.
  std::string (*validate)(unsigned k, std::uint64_t n);
  BuiltTopology (*build)(const ScenarioCell& cell, util::Rng& rng);
};

std::string no_constraint(unsigned, std::uint64_t) { return {}; }

graph::Vertex as_vertex(std::uint64_t n) { return static_cast<graph::Vertex>(n); }

BuiltTopology from_far(graph::FarInstance inst) {
  BuiltTopology out;
  out.certified_epsilon = inst.certified_epsilon();
  out.description = std::move(inst.description);
  out.graph = std::move(inst.graph);
  out.truth = GroundTruth::kFar;
  return out;
}

BuiltTopology from_ck_free(graph::CkFreeFamily family, const ScenarioCell& cell, util::Rng& rng) {
  BuiltTopology out;
  out.graph = graph::ck_free_instance(family, cell.k, as_vertex(cell.n), rng);
  out.description = std::string(graph::family_name(family));
  out.truth = GroundTruth::kCkFree;
  return out;
}

constexpr FamilyEntry kFamilies[] = {
    {{"cycle", "the single cycle C_n (contains Ck iff n == k)"},
     [](unsigned, std::uint64_t n) {
       return n >= 3 ? std::string{} : std::string("needs n >= 3");
     },
     [](const ScenarioCell& cell, util::Rng&) {
       BuiltTopology out;
       out.graph = graph::cycle(as_vertex(cell.n));
       out.description = "cycle";
       out.truth = cell.n == cell.k ? GroundTruth::kHasCk : GroundTruth::kCkFree;
       return out;
     }},
    {{"path", "the path P_n (cycle-free)"},
     [](unsigned, std::uint64_t n) {
       return n >= 2 ? std::string{} : std::string("needs n >= 2");
     },
     [](const ScenarioCell& cell, util::Rng&) {
       BuiltTopology out;
       out.graph = graph::path(as_vertex(cell.n));
       out.description = "path";
       out.truth = GroundTruth::kCkFree;
       return out;
     }},
    {{"wheel", "hub + rim: contains Ck for every 3 <= k < n"},
     [](unsigned, std::uint64_t n) {
       return n >= 4 ? std::string{} : std::string("needs n >= 4");
     },
     [](const ScenarioCell& cell, util::Rng&) {
       BuiltTopology out;
       out.graph = graph::wheel(as_vertex(cell.n));
       out.description = "wheel";
       out.truth = cell.k < cell.n ? GroundTruth::kHasCk : GroundTruth::kUnknown;
       return out;
     }},
    {{"complete", "K_n (dense stress; contains Ck for k <= n)"},
     [](unsigned, std::uint64_t n) {
       if (n < 3) return std::string("needs n >= 3");
       if (n > 4096) return std::string("n > 4096 would build a >8M-edge clique");
       return std::string{};
     },
     [](const ScenarioCell& cell, util::Rng&) {
       BuiltTopology out;
       out.graph = graph::complete(as_vertex(cell.n));
       out.description = "complete";
       out.truth = cell.k <= cell.n ? GroundTruth::kHasCk : GroundTruth::kCkFree;
       return out;
     }},
    {{"grid", "n x n grid (bipartite: odd-k free; contains C4..)"},
     [](unsigned, std::uint64_t n) {
       if (n < 2) return std::string("needs side n >= 2");
       if (n > 65535) return std::string("side n > 65535 would overflow n*n 32-bit vertices");
       return std::string{};
     },
     [](const ScenarioCell& cell, util::Rng&) {
       BuiltTopology out;
       out.graph = graph::grid(as_vertex(cell.n), as_vertex(cell.n));
       out.description = "grid";
       out.truth = cell.k % 2 == 1 ? GroundTruth::kCkFree
                                   : (cell.k <= 2 * (cell.n - 1) + 2 ? GroundTruth::kHasCk
                                                                     : GroundTruth::kUnknown);
       return out;
     }},
    {{"hypercube", "d-dimensional hypercube, n = dimension (bipartite)"},
     [](unsigned, std::uint64_t n) {
       if (n < 1) return std::string("needs dimension n >= 1");
       if (n > 20) return std::string("dimension n > 20 would build >1M vertices");
       return std::string{};
     },
     [](const ScenarioCell& cell, util::Rng&) {
       BuiltTopology out;
       out.graph = graph::hypercube(static_cast<unsigned>(cell.n));
       out.description = "hypercube";
       out.truth = cell.k % 2 == 1 ? GroundTruth::kCkFree
                                   : (cell.n >= 2 && cell.k <= (std::uint64_t{1} << cell.n)
                                          ? GroundTruth::kHasCk
                                          : GroundTruth::kUnknown);
       return out;
     }},
    {{"tree", "uniform random labelled tree (cycle-free)"}, no_constraint,
     [](const ScenarioCell& cell, util::Rng& rng) {
       BuiltTopology out;
       out.graph = graph::random_tree(as_vertex(std::max<std::uint64_t>(cell.n, 1)), rng);
       out.description = "random tree";
       out.truth = GroundTruth::kCkFree;
       return out;
     }},
    {{"gnm", "Erdos-Renyi G(n, m) with m = 2n edges"},
     [](unsigned, std::uint64_t n) {
       return n >= 5 ? std::string{} : std::string("needs n >= 5 so m = 2n fits");
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       BuiltTopology out;
       out.graph = graph::erdos_renyi_gnm(as_vertex(cell.n), 2 * cell.n, rng);
       out.description = "G(n,2n)";
       return out;
     }},
    {{"regular", "random 4-regular graph (configuration model)"},
     [](unsigned, std::uint64_t n) {
       return n >= 6 ? std::string{} : std::string("needs n >= 6 for degree 4");
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       BuiltTopology out;
       out.graph = graph::random_regular(as_vertex(cell.n), 4, rng);
       out.description = "4-regular";
       return out;
     }},
    {{"planted", "max(1, n/k) vertex-disjoint planted k-cycles, bridged (certified far)"},
     no_constraint,
     [](const ScenarioCell& cell, util::Rng& rng) {
       graph::PlantedOptions opt;
       opt.k = cell.k;
       opt.num_cycles = std::max<std::size_t>(1, cell.n / cell.k);
       return from_far(graph::planted_cycles_instance(opt, rng));
     }},
    {{"noisy", "planted k-cycles inside a girth-(>k) background (certified far)"},
     [](unsigned k, std::uint64_t n) {
       return n >= 2 * std::uint64_t{k}
                  ? std::string{}
                  : std::string("needs n >= 2k for the high-girth background");
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       graph::NoisyFarOptions opt;
       opt.k = cell.k;
       opt.num_cycles = std::max<std::size_t>(1, cell.n / 16);
       opt.background_n = as_vertex(cell.n);
       opt.background_m = 2 * cell.n;
       return from_far(graph::noisy_far_instance(opt, rng));
     }},
    {{"layered", "Behrend-substitute: shifted layer cycles, every vertex on 2 cycles"},
     no_constraint,
     [](const ScenarioCell& cell, util::Rng& rng) {
       return from_far(
           graph::layered_instance(cell.k, graph::coprime_layer_size(cell.n, cell.k), 2, rng));
     }},
    {{"ckfree_forest", "random forest (soundness family)"},
     [](unsigned, std::uint64_t n) {
       return n >= 4 ? std::string{} : std::string("needs n >= 4");
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       return from_ck_free(graph::CkFreeFamily::kForest, cell, rng);
     }},
    {{"ckfree_bipartite", "bipartite instance — Ck-free for odd k only"},
     [](unsigned k, std::uint64_t n) {
       if (n < 4) return std::string("needs n >= 4");
       if (k % 2 == 0) return std::string("Ck-free only for odd k (bipartite graphs have C" +
                                          std::to_string(k) + ")");
       return std::string{};
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       return from_ck_free(graph::CkFreeFamily::kBipartite, cell, rng);
     }},
    {{"ckfree_highgirth", "random graph with girth > k (soundness family)"},
     [](unsigned, std::uint64_t n) {
       return n >= 4 ? std::string{} : std::string("needs n >= 4");
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       return from_ck_free(graph::CkFreeFamily::kHighGirth, cell, rng);
     }},
    {{"ckfree_blowup", "disjoint K_{k-1} cliques + bridges (max cycle length k-1)"},
     [](unsigned k, std::uint64_t n) {
       if (n < 4) return std::string("needs n >= 4");
       if (k < 4) return std::string("needs k >= 4 (K_{k-1} must contain a cycle-free bound)");
       return std::string{};
     },
     [](const ScenarioCell& cell, util::Rng& rng) {
       return from_ck_free(graph::CkFreeFamily::kCliqueBlowup, cell, rng);
     }},
};

const FamilyEntry* find_family(std::string_view name) {
  for (const FamilyEntry& entry : kFamilies) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::span<const FamilyInfo> known_families() {
  static const std::vector<FamilyInfo> infos = [] {
    std::vector<FamilyInfo> out;
    for (const FamilyEntry& entry : kFamilies) out.push_back(entry.info);
    return out;
  }();
  return infos;
}

namespace {

std::string validate_entry(const FamilyEntry* entry, std::string_view family, unsigned k,
                           std::uint64_t n) {
  if (entry == nullptr) {
    return "unknown graph family '" + std::string(family) + "' (known: " + known_family_list() +
           ")";
  }
  std::string err = k < kMinK || k > kMaxK
                        ? "needs k in " + std::to_string(kMinK) + ".." + std::to_string(kMaxK)
                        : entry->validate(k, n);
  if (!err.empty()) {
    err = "family '" + std::string(family) + "' with k=" + std::to_string(k) +
          " n=" + std::to_string(n) + ": " + err;
  }
  return err;
}

}  // namespace

std::string validate_family(std::string_view family, unsigned k, std::uint64_t n) {
  return validate_entry(find_family(family), family, k, n);
}

BuiltTopology build_topology(const ScenarioCell& cell, util::Rng& rng) {
  const FamilyEntry* entry = find_family(cell.family);
  const std::string err = validate_entry(entry, cell.family, cell.k, cell.n);
  if (!err.empty()) fail(err);
  return entry->build(cell, rng);
}

std::string_view ground_truth_name(GroundTruth t) noexcept {
  switch (t) {
    case GroundTruth::kCkFree: return "ck_free";
    case GroundTruth::kHasCk: return "has_ck";
    case GroundTruth::kFar: return "far";
    case GroundTruth::kUnknown: return "unknown";
  }
  return "unknown";
}

std::string_view seed_mode_name(SeedMode m) noexcept {
  return m == SeedMode::kSharedGraph ? "shared" : "fresh";
}

std::string AdversarySpec::name() const {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kUniform: return "uniform:" + json_double(rate);
    case Kind::kOneWay: return "oneway:" + json_double(rate);
    case Kind::kLate: return "late:" + json_double(rate);
  }
  return "none";
}

AdversarySpec parse_adversary(std::string_view token) {
  AdversarySpec spec;
  std::string_view name = token;
  std::string_view rate_str;
  const std::size_t colon = token.find(':');
  if (colon != std::string_view::npos) {
    name = token.substr(0, colon);
    rate_str = token.substr(colon + 1);
  }
  if (name == "none") {
    if (colon != std::string_view::npos) {
      throw util::ParseError("adversary",
                             "'none' takes no rate (got '" + std::string(token) + "')");
    }
    return spec;
  }
  if (name == "uniform") {
    spec.kind = AdversarySpec::Kind::kUniform;
  } else if (name == "oneway") {
    spec.kind = AdversarySpec::Kind::kOneWay;
  } else if (name == "late") {
    spec.kind = AdversarySpec::Kind::kLate;
  } else {
    throw util::ParseError("adversary", "unknown adversary '" + std::string(name) +
                                            "' (known: none, uniform:R, oneway:R, late:R)");
  }
  if (rate_str.empty()) {
    throw util::ParseError("adversary", "'" + std::string(name) + "' needs a drop rate, e.g. " +
                                            std::string(name) + ":0.2");
  }
  spec.rate = util::parse_value<double>("adversary", rate_str, 0.0, 1.0);
  return spec;
}

congest::Simulator::DropFilter make_drop_filter(const AdversarySpec& spec, std::uint64_t seed) {
  if (spec.kind == AdversarySpec::Kind::kNone || spec.rate <= 0.0) return nullptr;
  const AdversarySpec::Kind kind = spec.kind;
  const double rate = spec.rate;
  // Stateless per-(round, from, to) coin — deterministic, thread-safe, pure.
  return [kind, rate, seed](std::uint64_t round, graph::Vertex from, graph::Vertex to) {
    if (kind == AdversarySpec::Kind::kOneWay && from > to) return false;
    if (kind == AdversarySpec::Kind::kLate && round < 2) return false;
    std::uint64_t h = util::splitmix64(seed ^ util::splitmix64(round));
    h = util::splitmix64(h ^ from);
    h = util::splitmix64(h ^ to);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
  };
}

std::string ScenarioCell::key() const {
  std::string out = "family=" + family;
  out += " k=" + std::to_string(k);
  out += " eps=" + json_double(epsilon);
  out += " n=" + std::to_string(n);
  out += " adversary=" + adversary.name();
  DECYCLE_CHECK_MSG(model != nullptr, "scenario cell has no communication model");
  // Appended only for non-congest models so pre-model cells keep their
  // historical keys — cell seeds are content-addressed from this string and
  // the golden nightly matrix pins the congest cells byte-for-byte.
  if (model->kind() != congest::CommModelKind::kCongest) {
    out += " model=" + std::string(model->name());
  }
  DECYCLE_CHECK_MSG(algo != nullptr, "scenario cell has no detection algorithm");
  out += " algo=" + std::string(algo->name());
  return out;
}

std::uint64_t ScenarioCell::cell_seed() const {
  // Content-addressed over the canonical key via the engine's shared fold
  // (engine/lanes.hpp) — pinned by tests/lab/seed_stability_test.cpp.
  return engine::fold_seed(util::splitmix64(base_seed ^ 0x6c61625f63656c6cULL),  // "lab_cell"
                           key());
}

ScenarioSpec ScenarioSpec::parse(util::KvReader r) {
  ScenarioSpec spec;
  if (auto families = r.take_list<std::string>("family"); !families.empty()) {
    for (const std::string& name : families) {
      if (find_family(name) == nullptr) {
        throw util::ParseError("family", "unknown graph family '" + name +
                                             "' (known: " + known_family_list() + ")");
      }
    }
    spec.families = std::move(families);
  }
  if (auto ks = r.take_list<unsigned>("k", kMinK, kMaxK); !ks.empty()) spec.ks = std::move(ks);
  if (auto epsilons = r.take_list<double>("eps"); !epsilons.empty()) {
    for (const double e : epsilons) {
      if (!(e > 0.0 && e <= 1.0)) {
        throw util::ParseError("eps", "epsilon must be in (0, 1], got " + json_double(e));
      }
    }
    spec.epsilons = std::move(epsilons);
  }
  // Builders take 32-bit Vertex; a silent narrowing would build a different
  // instance than the JSON record claims.
  if (auto sizes = r.take_list<std::uint64_t>("n", 1, 0xFFFFFFFEULL); !sizes.empty()) {
    spec.sizes = std::move(sizes);
  }
  if (const auto tokens = r.take_list<std::string>("adversary"); !tokens.empty()) {
    spec.adversaries.clear();
    for (const std::string& token : tokens) spec.adversaries.push_back(parse_adversary(token));
  }
  if (const auto names = r.take_list<std::string>("model"); !names.empty()) {
    spec.models.clear();
    for (const std::string& name : names) {
      const congest::CommModel* model = congest::CommModel::find(name);
      if (model == nullptr) {
        throw util::ParseError("model", "unknown communication model '" + name + "' (known: " +
                                            congest::CommModel::known_names() + ")");
      }
      spec.models.push_back(model);
    }
  }
  if (const auto names = r.take_list<std::string>("algo"); !names.empty()) {
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin();
    spec.algos.clear();
    for (const std::string& name : names) {
      const core::Detector* detector = registry.find(name);
      if (detector == nullptr) {
        throw util::ParseError("algo", "unknown algorithm '" + name +
                                           "' (known: " + registry.known_names() + ")");
      }
      spec.algos.push_back(detector);
    }
  }
  spec.trials = r.take<std::size_t>("trials", spec.trials, 1);
  spec.seed = r.take("seed", spec.seed);
  spec.repetitions = r.take("reps", spec.repetitions);
  if (const auto mode = r.take_string("seed_mode")) {
    if (*mode == "shared") {
      spec.seed_mode = SeedMode::kSharedGraph;
    } else if (*mode == "fresh") {
      spec.seed_mode = SeedMode::kFreshGraph;
    } else {
      throw util::ParseError("seed_mode", "expected shared or fresh, got '" + *mode + "'");
    }
  }
  if (const auto budget = r.take_string("budget")) {
    spec.budget = core::threshold::BudgetSchedule::parse(*budget);
  }
  spec.track = r.take("track", spec.track);
  r.finish();
  return spec;
}

ScenarioSpec ScenarioSpec::parse_tokens(const std::vector<std::string>& tokens) {
  const std::vector<std::string_view> views(tokens.begin(), tokens.end());
  return parse(util::KvReader::from_tokens("scenario", views));
}

std::vector<ScenarioCell> ScenarioSpec::expand() const {
  // In double the product of seven axes cannot overflow, and it is exact
  // far beyond the cap.
  double count = 1;
  for (const std::size_t axis : {families.size(), ks.size(), epsilons.size(), sizes.size(),
                                 adversaries.size(), models.size(), algos.size()}) {
    count *= static_cast<double>(axis);
  }
  if (count > static_cast<double>(kMaxCells)) {
    fail("scenario matrix has " + util::count_text(count) + " cells; the limit is " +
         std::to_string(kMaxCells) + " (split it into several runs)");
  }
  std::vector<ScenarioCell> cells;
  for (const std::string& family : families) {
    for (const unsigned k : ks) {
      for (const double eps : epsilons) {
        for (const std::uint64_t n : sizes) {
          const std::string err = validate_family(family, k, n);
          if (!err.empty()) fail("scenario matrix contains an unbuildable cell: " + err);
          for (const AdversarySpec& adversary : adversaries) {
            for (const congest::CommModel* model : models) {
              for (const core::Detector* algo : algos) {
                const std::string aerr =
                    core::DetectorRegistry::builtin().validate_k(*algo, k);
                if (!aerr.empty()) {
                  fail("scenario matrix contains an unsupported cell: " + aerr);
                }
                const std::string merr =
                    core::DetectorRegistry::builtin().validate_model(*algo, *model);
                if (!merr.empty()) {
                  fail("scenario matrix contains an unsupported cell: " + merr);
                }
                ScenarioCell cell;
                cell.index = cells.size();
                cell.family = family;
                cell.k = k;
                cell.epsilon = eps;
                cell.n = n;
                cell.adversary = adversary;
                cell.model = model;
                cell.algo = algo;
                cell.seed_mode = seed_mode;
                cell.trials = trials;
                cell.base_seed = seed;
                cell.repetitions = repetitions;
                cell.budget = budget;
                cell.track = track;
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace decycle::lab
