/// \file e1_soundness.cpp
/// \brief Experiment T1 — Theorem 1, 1-sided error.
///
/// Paper claim: "if G is Ck-free, then Pr[every node outputs accept] = 1."
/// For every k and every Ck-free family we run the full tester (with the
/// recommended repetition count) on several seeds; a single rejection would
/// fail the experiment. Witness validation is on, so a rejection could not
/// even be a statistics artifact — it would carry a supposed cycle that the
/// graph oracle then refutes by throwing.
#include <iostream>

#include "core/detector.hpp"
#include "core/phase1.hpp"
#include "graph/far_generators.hpp"
#include "harness/claims.hpp"
#include "harness/estimator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto kmax = args.get<unsigned>("kmax", 8);
  const auto n = args.get<graph::Vertex>("n", 56);
  const std::size_t trials = args.get<std::size_t>("trials", 6);
  const double eps = args.get<double>("eps", 0.15);
  args.reject_unknown();

  harness::ClaimSet claims("E1 soundness (Theorem 1, 1-sided error)");
  util::Table table({"k", "family", "n", "m", "trials x reps", "acceptance", "claim"});

  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  for (unsigned k = 3; k <= kmax; ++k) {
    for (const auto family : graph::ck_free_families_for(k)) {
      std::size_t accepted = 0;
      std::size_t m_last = 0;
      graph::Vertex n_last = 0;
      const std::size_t reps = core::recommended_repetitions(eps);
      for (std::size_t trial = 0; trial < trials; ++trial) {
        util::Rng rng(1000 * k + 10 * static_cast<unsigned>(family) + trial);
        const graph::Graph g = graph::ck_free_instance(family, k, n, rng);
        const graph::IdAssignment ids =
            graph::IdAssignment::random_quadratic(g.num_vertices(), rng);
        core::DetectorOptions topt;
        topt.k = k;
        topt.epsilon = eps;
        topt.seed = 7777 + trial;
        const auto verdict = tester.run_fresh(g, ids, topt);
        if (verdict.accepted) ++accepted;
        m_last = g.num_edges();
        n_last = g.num_vertices();
      }
      const bool holds = accepted == trials;
      std::string label = "k=" + std::to_string(k) + " " + graph::family_name(family);
      claims.check("always accept on " + label, holds);
      table.row()
          .cell(static_cast<std::uint64_t>(k))
          .cell(graph::family_name(family))
          .cell(static_cast<std::uint64_t>(n_last))
          .cell(static_cast<std::uint64_t>(m_last))
          .cell(std::to_string(trials) + " x " + std::to_string(reps))
          .cell(static_cast<double>(accepted) / static_cast<double>(trials), 3)
          .cell_ok(holds);
    }
  }

  table.print(std::cout, "T1: acceptance probability on Ck-free instances (must be 1.000)");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e1_soundness", argc, argv, run);
}
