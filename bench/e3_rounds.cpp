/// \file e3_rounds.cpp
/// \brief Experiment T3 — Theorem 1's O(1/ε) round complexity.
///
/// The tester runs ⌈e²·ln3/ε⌉ repetitions of (⌊k/2⌋ + 2) rounds each, so
/// total rounds must scale linearly in 1/ε with slope e²·ln3·(⌊k/2⌋+2).
/// The table reports measured simulator rounds against the model, plus the
/// bandwidth-normalized round count at a strict B = 2⌈log₂ n⌉-bit link
/// (DESIGN.md §3.4) — the constant-factor price of bundling.
#include <cmath>
#include <iostream>

#include "core/detector.hpp"
#include "core/phase1.hpp"
#include "graph/far_generators.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto k = args.get<unsigned>("k", 5);
  args.reject_unknown();

  harness::ClaimSet claims("E3 rounds (Theorem 1, O(1/eps))");

  util::Rng rng(5);
  graph::PlantedOptions popt;
  popt.k = k;
  popt.num_cycles = 4;
  popt.padding_leaves = 40;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const graph::IdAssignment ids = graph::IdAssignment::identity(inst.graph.num_vertices());
  const std::uint64_t bandwidth =
      2 * static_cast<std::uint64_t>(std::ceil(std::log2(inst.graph.num_vertices())));

  util::Table table({"eps", "1/eps", "reps", "rounds", "rounds*eps", "normalized rounds (B)",
                     "model reps", "claim"});

  const double eps_values[] = {0.5, 0.3, 0.2, 0.1, 0.05, 0.02};
  double first_scaled = 0.0;
  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  for (const double eps : eps_values) {
    core::DetectorOptions topt;
    topt.k = k;
    topt.epsilon = eps;
    topt.seed = 11;
    topt.record_rounds = true;  // normalized_rounds reads the per-round stats
    const auto verdict = tester.run_fresh(inst.graph, ids, topt);

    const auto model_reps = core::recommended_repetitions(eps);
    const auto model_rounds = model_reps * (k / 2 + 2);
    // The simulator may save a round at the very end (no traffic after the
    // final check); allow that single round of slack.
    const bool matches_model = verdict.stats.rounds_executed <= model_rounds &&
                               verdict.stats.rounds_executed + 1 >= model_rounds;
    const double scaled = static_cast<double>(verdict.stats.rounds_executed) * eps;
    if (first_scaled == 0.0) first_scaled = scaled;
    // Linearity: rounds*eps stays within 20% of its value at the first eps
    // (the ceiling in the repetition count causes small wobble).
    const bool linear = scaled > 0.6 * first_scaled && scaled < 1.4 * first_scaled;

    claims.check("rounds follow reps*(k/2+2) at eps=" + util::format_double(eps, 2),
                 matches_model);
    claims.check("rounds scale linearly in 1/eps at eps=" + util::format_double(eps, 2), linear);
    table.row()
        .cell(eps, 2)
        .cell(1.0 / eps, 1)
        .cell(static_cast<std::uint64_t>(verdict.repetitions))
        .cell(verdict.stats.rounds_executed)
        .cell(scaled, 1)
        .cell(verdict.stats.normalized_rounds(bandwidth))
        .cell(static_cast<std::uint64_t>(model_reps))
        .cell_ok(matches_model && linear);
  }

  table.print(std::cout,
              "T3: round complexity vs 1/eps (k=" + std::to_string(k) +
                  ", slope = e^2 ln3 (k/2+2), B=" + std::to_string(bandwidth) + " bits)");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e3_rounds", argc, argv, run);
}
