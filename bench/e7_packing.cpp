/// \file e7_packing.cpp
/// \brief Experiment T7 — Lemma 4: ε-far graphs hold >= εm/k edge-disjoint
/// k-cycles.
///
/// On instances with a certified deletion distance (planted packings of
/// c cycles: ε-far for every ε < c/m), Lemma 4 predicts at least εm/k
/// edge-disjoint copies. The greedy packer must therefore recover at least
/// ⌈εm/k⌉ cycles — and on these constructions it recovers a maximal family,
/// which the table compares against the planted count.
#include <cmath>
#include <iostream>

#include "graph/far_generators.hpp"
#include "graph/packing.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  args.reject_unknown();

  harness::ClaimSet claims("E7 packing (Lemma 4)");
  util::Table table({"instance", "k", "m", "cert. eps", "eps*m/k", "greedy packing", "planted",
                     "claim"});

  util::Rng rng(12);
  struct Case {
    std::string name;
    graph::FarInstance inst;
    unsigned k;
  };
  std::vector<Case> cases;
  {
    graph::PlantedOptions p1;
    p1.k = 4;
    p1.num_cycles = 10;
    p1.padding_leaves = 30;
    cases.push_back({"planted C4", graph::planted_cycles_instance(p1, rng), 4});
    graph::PlantedOptions p2;
    p2.k = 7;
    p2.num_cycles = 8;
    p2.padding_leaves = 50;
    cases.push_back({"planted C7", graph::planted_cycles_instance(p2, rng), 7});
    graph::NoisyFarOptions n1;
    n1.k = 5;
    n1.num_cycles = 8;
    n1.background_n = 120;
    n1.background_m = 200;
    cases.push_back({"noisy C5", graph::noisy_far_instance(n1, rng), 5});
    cases.push_back({"layered C5", graph::layered_instance(5, 11, 4, rng), 5});
    cases.push_back({"layered C6", graph::layered_instance(6, 9, 3, rng), 6});
  }

  for (const auto& c : cases) {
    const double eps = c.inst.certified_epsilon();
    const double lemma_bound =
        eps * static_cast<double>(c.inst.graph.num_edges()) / static_cast<double>(c.k);
    const auto packing = graph::greedy_cycle_packing(c.inst.graph, c.k);
    const bool holds = static_cast<double>(packing.size()) >= std::floor(lemma_bound);
    claims.check("packing >= eps*m/k on " + c.name, holds);
    table.row()
        .cell(c.name)
        .cell(static_cast<std::uint64_t>(c.k))
        .cell(static_cast<std::uint64_t>(c.inst.graph.num_edges()))
        .cell(eps, 4)
        .cell(lemma_bound, 2)
        .cell(static_cast<std::uint64_t>(packing.size()))
        .cell(static_cast<std::uint64_t>(c.inst.planted.size()))
        .cell_ok(holds);
  }

  table.print(std::cout, "T7: greedy edge-disjoint Ck packing vs Lemma 4 bound eps*m/k");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e7_packing", argc, argv, run);
}
