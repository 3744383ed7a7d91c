/// \file space.hpp
/// \brief The randomized soak instance space.
///
/// The lab's 16 curated families are a fixed matrix; the soak space is the
/// open-ended complement: every instance is drawn from a seeded distribution
/// over random graph shapes (G(n,m), regular, bipartite, trees, grids,
/// high-girth backgrounds, certified-far plantings) *composed* with 0..3
/// freshly planted C_k's, random k/ε, a random drop adversary, and random
/// threshold budget/track schedules. No hand-written matrix covers this
/// interaction space — the differential campaign walks it by index.
///
/// Determinism contract: an instance is a pure function of
/// (campaign seed, index). The instance seed is content-addressed — folded
/// from the literal string "soak/v1 seed=<S> instance=<I>" exactly like the
/// lab's cell seeds — so a campaign is byte-replayable from its seed alone
/// and growing or splitting a campaign never reshuffles earlier instances.
#pragma once

#include <cstdint>
#include <string>

#include "core/threshold/budget.hpp"
#include "graph/graph.hpp"
#include "lab/scenario.hpp"

namespace decycle::soak {

/// The non-graph half of an instance: every knob a differential run needs.
/// This is what a repro file's scenario line serializes — together with the
/// edge list it makes a mismatch self-contained.
struct SoakScenario {
  unsigned k = 5;
  double epsilon = 0.125;
  /// Detector repetitions/sweeps/iterations; 0 = the algorithm's own
  /// (amplified) default.
  std::size_t repetitions = 1;
  core::threshold::BudgetSchedule budget = core::threshold::BudgetSchedule::none();
  std::uint64_t track = 0;  ///< 0 = unlimited
  lab::AdversarySpec adversary;
  /// Base seed for the run-level randomness (per-detector run seeds and the
  /// drop-filter coin derive from this).
  std::uint64_t seed = 1;

  /// Canonical `key=value` form, e.g. "k=5 eps=0.125 reps=1 budget=none
  /// track=0 adversary=none seed=7". Round-trips through the repro parser.
  [[nodiscard]] std::string key() const;
};

/// One fully drawn instance: scenario knobs plus the topology they run on.
struct SoakInstance {
  std::uint64_t index = 0;
  std::uint64_t instance_seed = 0;
  SoakScenario scenario;
  graph::Graph graph;
  std::string base;  ///< human-readable composition, e.g. "gnm(n=40,m=96)+2xC5"
  /// The composition certifies the instance ε-far from Ck-free for the
  /// scenario's ε (far-generator base whose certificate covers ε, planted
  /// cycles left intact). Drives the campaign's completeness audit.
  bool certified_far = false;
};

/// Bounds of the drawn distribution: k is drawn from [kMinK, max_k] and n
/// from [kMinN, max_n]. The defaults keep the DFS oracle and a full registry
/// sweep cheap per instance (hundreds of instances per second) while still
/// crossing every knob; the CLI exposes the upper bounds.
struct SoakSpace {
  unsigned max_k = 9;
  graph::Vertex max_n = 48;

  /// Limits of the drawn k and n, and so of max_k and max_n. k must stay in
  /// the registry's supported window; n must stay small enough for the DFS
  /// oracle and large enough for every base generator's precondition.
  static constexpr unsigned kMinK = 3;
  static constexpr unsigned kMaxK = 64;
  static constexpr graph::Vertex kMinN = 8;
  static constexpr graph::Vertex kMaxN = 4096;
  /// Probability that the drawn repetitions value is 0 (= the detector's
  /// own amplified default — expensive, but the regime the completeness
  /// audit needs).
  static constexpr double kDefaultRepsProbability = 0.15;

  /// Empty string when the bounds are drawable; otherwise a message naming
  /// the offending bound and the accepted window. draw() and run_campaign
  /// enforce this, so a typo'd --max-n can never underflow into a
  /// billion-vertex draw or silently clamp.
  [[nodiscard]] std::string validate() const;

  /// Content-addressed seed of instance \p index of campaign \p seed.
  [[nodiscard]] static std::uint64_t instance_seed(std::uint64_t campaign_seed,
                                                   std::uint64_t index);

  /// Draws instance \p index of campaign \p campaign_seed. Pure function of
  /// (space bounds, campaign_seed, index). Throws CheckError when
  /// validate() reports an error.
  [[nodiscard]] SoakInstance draw(std::uint64_t campaign_seed, std::uint64_t index) const;
};

}  // namespace decycle::soak
