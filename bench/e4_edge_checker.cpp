/// \file e4_edge_checker.cpp
/// \brief Experiment T4 — Lemma 2: the single-edge checker is exact.
///
/// "Our algorithm for testing the existence of a k-cycle passing through a
/// given edge e does not rely on the ε-farness assumption... even if there
/// is just a single k-cycle passing through e, that cycle will be detected."
/// For every edge of random instances the distributed checker must agree
/// with the centralized exact oracle, and every hit must carry a validated
/// witness. Also reports wall-clock per check (simulation cost, not a
/// round-complexity statement).
#include <iostream>

#include "core/detector.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto n = args.get<graph::Vertex>("n", 18);
  const std::size_t m = args.get<std::size_t>("m", 30);
  const std::size_t graphs = args.get<std::size_t>("graphs", 4);
  args.reject_unknown();

  harness::ClaimSet claims("E4 single-edge checker exactness (Lemma 2)");
  util::Table table({"k", "graphs", "edges checked", "positives", "mismatches", "us/check",
                     "max rounds", "claim"});

  const core::Detector& checker = core::DetectorRegistry::builtin().require("edge_checker");
  for (unsigned k = 3; k <= 8; ++k) {
    std::size_t checked = 0, positives = 0, mismatches = 0;
    std::uint64_t max_rounds = 0;
    util::WallTimer timer;
    for (std::size_t trial = 0; trial < graphs; ++trial) {
      util::Rng rng(100 * k + trial);
      const graph::Graph g = graph::erdos_renyi_gnm(n, m, rng);
      const graph::IdAssignment ids = graph::IdAssignment::random_quadratic(n, rng);
      for (const auto& e : g.edges()) {
        core::DetectorOptions opt;
        opt.k = k;
        opt.edge = e;
        const auto result = checker.run_fresh(g, ids, opt);
        const bool found = !result.accepted;
        const bool truth = graph::has_cycle_through_edge(g, k, e.first, e.second);
        ++checked;
        if (found) ++positives;
        if (found != truth) ++mismatches;
        max_rounds = std::max(max_rounds, result.stats.rounds_executed);
      }
    }
    const double us = timer.micros() / static_cast<double>(checked);
    const bool exact = mismatches == 0;
    const bool rounds_ok = max_rounds <= k / 2 + 1;
    claims.check("exact for k=" + std::to_string(k), exact);
    claims.check("rounds <= k/2+1 for k=" + std::to_string(k), rounds_ok);
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(static_cast<std::uint64_t>(graphs))
        .cell(static_cast<std::uint64_t>(checked))
        .cell(static_cast<std::uint64_t>(positives))
        .cell(static_cast<std::uint64_t>(mismatches))
        .cell(us, 1)
        .cell(max_rounds)
        .cell_ok(exact && rounds_ok);
  }

  table.print(std::cout, "T4: distributed checker vs exact oracle, every edge of G(n,m)");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e4_edge_checker", argc, argv, run);
}
