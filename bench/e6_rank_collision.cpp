/// \file e6_rank_collision.cpp
/// \brief Experiment T6 — Lemma 5: Pr[unique minimum rank] >= 1/e².
///
/// Phase 1 draws a rank per edge from [1, m²]; the analysis needs the
/// minimum to be unique. Lemma 5's bound 1/e² ≈ 0.1353 comes from bounding
/// Pr[all m ranks distinct] >= (1 - 1/m)^m; the truth is much higher (the
/// *minimum* colliding is far rarer than any collision). Both the lemma's
/// bound and the all-distinct proxy appear in the table.
#include <cmath>
#include <iostream>

#include "core/phase1.hpp"
#include "harness/claims.hpp"
#include "harness/estimator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const std::uint64_t budget = args.get<std::uint64_t>("draw_budget", 40'000'000);
  args.reject_unknown();

  harness::ClaimSet claims("E6 rank collisions (Lemma 5)");
  const double bound = std::exp(-2.0);
  util::Table table(
      {"m", "trials", "unique-min rate", "95% CI low", "(1-1/m)^m", "bound 1/e^2", "claim"});
  util::ThreadPool& pool = util::global_pool();

  for (const std::size_t m : {2UL, 5UL, 10UL, 100UL, 1000UL, 10000UL, 100000UL}) {
    const std::size_t trials =
        std::max<std::size_t>(2000, std::min<std::size_t>(200000, budget / m));
    const auto estimate = harness::estimate_rate(
        [m](std::size_t, std::uint64_t seed) {
          util::Rng rng(seed);
          return core::unique_min_rank_trial(m, rng);
        },
        trials, 99, &pool);
    const double birthday = std::pow(1.0 - 1.0 / static_cast<double>(m),
                                     static_cast<double>(m));
    const bool holds = estimate.interval.low > bound;
    claims.check("unique-min rate > 1/e^2 at m=" + std::to_string(m), holds);
    table.row()
        .cell(static_cast<std::uint64_t>(m))
        .cell(static_cast<std::uint64_t>(trials))
        .cell(estimate.rate(), 4)
        .cell(estimate.interval.low, 4)
        .cell(birthday, 4)
        .cell(bound, 4)
        .cell_ok(holds);
  }

  table.print(std::cout, "T6: empirical Pr[unique min rank] with ranks from [1, m^2]");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e6_rank_collision", argc, argv, run);
}
