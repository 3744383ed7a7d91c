/// \file scenario.hpp
/// \brief Declarative scenario matrix for the lab runner.
///
/// A scenario spec names axes (graph family × k × ε × size × adversary ×
/// algorithm) and shared scalars (trials, seed policy, repetitions). Axes
/// are parsed from `key=value` tokens by util/kv.hpp — comma lists
/// (`k=3,5,7`) and integer ranges (`n=32..128:32`) — the way Theorem 1's
/// experiments sweep their instances; expand() takes the cross product into
/// a flat list of fully instantiated cells. Unknown and repeated keys,
/// unknown family names, and out-of-range or non-finite values are rejected
/// at parse time with messages that name the offender and the accepted
/// alternatives, so a typo'd matrix never silently runs the default
/// workload.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/simulator.hpp"
#include "core/detector.hpp"
#include "core/threshold/budget.hpp"
#include "graph/graph.hpp"
#include "util/kv.hpp"
#include "util/rng.hpp"

namespace decycle::lab {

/// Seed policy. kSharedGraph builds one topology per cell (graph seed
/// derived from the cell, trials vary only the algorithm seed) — this is
/// what enables Simulator reuse. kFreshGraph rebuilds the topology from
/// each trial's seed.
enum class SeedMode : std::uint8_t { kSharedGraph, kFreshGraph };

/// A named message-loss adversary with its drop probability.
struct AdversarySpec {
  enum class Kind : std::uint8_t {
    kNone,     ///< lossless network
    kUniform,  ///< iid per-message drop with probability rate
    kOneWay,   ///< drops only lower->higher vertex messages, probability rate
    kLate,     ///< drops only messages sent at rounds >= 2 (Phase-2 traffic)
  };
  Kind kind = Kind::kNone;
  double rate = 0.0;

  [[nodiscard]] std::string name() const;  ///< canonical token, e.g. "uniform:0.25"
};

/// What is provably known about a built instance, recorded in the JSON so
/// nightly runs can assert soundness (no rejection on kCkFree cells).
enum class GroundTruth : std::uint8_t { kCkFree, kHasCk, kFar, kUnknown };

[[nodiscard]] std::string_view ground_truth_name(GroundTruth t) noexcept;

/// One fully instantiated point of the matrix.
struct ScenarioCell {
  std::size_t index = 0;  ///< position in expansion order
  std::string family = "planted";
  unsigned k = 5;
  double epsilon = 0.1;
  std::uint64_t n = 64;  ///< family size parameter (vertices, or dimension for hypercube)
  AdversarySpec adversary;
  /// Communication model the cell's simulators are built under — one of the
  /// two CommModel instances, never null after parsing. Detectors whose
  /// capability mask excludes the model are rejected at expand() time.
  const congest::CommModel* model = &congest::CommModel::congest();
  /// Which detection algorithm this cell exercises — a registry-owned
  /// singleton from core::DetectorRegistry::builtin(), never null after
  /// parsing. The registry is the single source of truth: any registered
  /// detector whose capabilities admit (k, model, …) is a valid axis value.
  const core::Detector* algo = core::DetectorRegistry::builtin().find("tester");

  // Shared scalars, copied from the spec for self-contained execution.
  SeedMode seed_mode = SeedMode::kSharedGraph;
  std::size_t trials = 32;
  std::uint64_t base_seed = 1;
  std::size_t repetitions = 0;  ///< 0 = recommended_repetitions(epsilon); threshold: sweeps (0 = 1)
  /// Threshold-family knobs (ignored by the other algorithms): per-link
  /// sequence budget schedule and the per-node execution tracking cap.
  core::threshold::BudgetSchedule budget = core::threshold::BudgetSchedule::constant(16);
  std::uint64_t track = 8;  ///< 0 = unlimited

  /// Canonical content key, e.g. "family=planted k=5 eps=0.1 n=64
  /// adversary=none algo=tester". Cell seeds are derived from this, so a
  /// cell's results are invariant under adding or reordering other axis
  /// values. A ` model=<name>` token is appended only for non-congest
  /// models: pre-model cells keep their historical keys (and therefore
  /// their golden-pinned seeds) bit-for-bit.
  [[nodiscard]] std::string key() const;

  /// Deterministic 64-bit seed folded from base_seed and key().
  [[nodiscard]] std::uint64_t cell_seed() const;
};

/// The parsed matrix: axes plus shared scalars.
struct ScenarioSpec {
  std::vector<std::string> families = {"planted"};
  std::vector<unsigned> ks = {5};
  std::vector<double> epsilons = {0.1};
  std::vector<std::uint64_t> sizes = {64};
  std::vector<AdversarySpec> adversaries = {{}};
  std::vector<const congest::CommModel*> models = {&congest::CommModel::congest()};
  std::vector<const core::Detector*> algos = {core::DetectorRegistry::builtin().find("tester")};

  SeedMode seed_mode = SeedMode::kSharedGraph;
  std::size_t trials = 32;
  std::uint64_t seed = 1;
  std::size_t repetitions = 0;
  core::threshold::BudgetSchedule budget = core::threshold::BudgetSchedule::constant(16);
  std::uint64_t track = 8;

  /// Reads every key of \p reader (axis keys: family, k, eps, n, adversary,
  /// model, algo; scalar keys: trials, seed, reps, seed_mode, budget,
  /// track). Throws util::ParseError naming the offending key/value and
  /// the accepted options.
  [[nodiscard]] static ScenarioSpec parse(util::KvReader reader);

  /// Convenience overload for "key=value" tokens (tests, scripts).
  [[nodiscard]] static ScenarioSpec parse_tokens(const std::vector<std::string>& tokens);

  /// Cross product in fixed nesting order family > k > eps > n > adversary
  /// > model > algo (algo fastest). Validates every (family, k, n)
  /// combination — e.g. ckfree_bipartite requires odd k — and every
  /// (algo, k) and (algo, model) pair against the detector's capabilities
  /// (e.g. algo=c4 accepts k=4 only; algo=tester refuses model=clique),
  /// throwing errors that name the accepted alternatives, so an unsupported
  /// matrix never silently produces meaningless cells. A matrix of more
  /// than kMaxCells cells is refused before any cell is built.
  [[nodiscard]] std::vector<ScenarioCell> expand() const;

  /// Far above every matrix in CI, the nightly run (80 cells) and the docs.
  static constexpr std::size_t kMaxCells = 65536;
};

[[nodiscard]] std::string_view seed_mode_name(SeedMode m) noexcept;

/// A topology built for one cell (or one fresh-graph trial).
struct BuiltTopology {
  graph::Graph graph;
  double certified_epsilon = 0.0;  ///< 0 when the family carries no certificate
  std::string description;
  GroundTruth truth = GroundTruth::kUnknown;
};

/// Registry of named graph families (drawn from graph/generators.cpp and
/// graph/far_generators.cpp).
struct FamilyInfo {
  std::string_view name;
  std::string_view summary;
};
[[nodiscard]] std::span<const FamilyInfo> known_families();

/// Empty string when (family, k, n) is buildable; otherwise a message
/// explaining why not (unknown family names the known ones; every family
/// needs k in 3..64).
[[nodiscard]] std::string validate_family(std::string_view family, unsigned k, std::uint64_t n);

/// Builds the instance for \p cell. All randomness comes from \p rng.
/// Throws CheckError when validate_family would return an error.
[[nodiscard]] BuiltTopology build_topology(const ScenarioCell& cell, util::Rng& rng);

/// Parses an adversary token (`none`, `uniform:0.2`, `oneway:0.5`,
/// `late:0.3`); throws util::ParseError on unknown names or rates that are
/// not finite numbers in [0, 1].
[[nodiscard]] AdversarySpec parse_adversary(std::string_view token);

/// Stateless deterministic drop filter implementing \p spec; pure in
/// (round, from, to) given \p seed, so runs stay bit-reproducible and the
/// filter is safe to share across queries in concurrent engine lanes.
[[nodiscard]] congest::Simulator::DropFilter make_drop_filter(const AdversarySpec& spec,
                                                              std::uint64_t seed);

}  // namespace decycle::lab
