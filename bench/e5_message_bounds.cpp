/// \file e5_message_bounds.cpp
/// \brief Experiment T5 — Lemma 3: bundle sizes stay within (k-t+1)^(t-1).
///
/// The core of the paper: pruning caps the number of sequences a node
/// forwards at paper-round t by (k-t+1)^(t-1), independent of degree or of
/// how many cycles cross the node. We hammer the checker with the densest
/// small instances (complete bipartite, complete, layered packings) and
/// record the per-round maxima across all nodes; the naive
/// append-and-forward baseline on the same instances shows what the bound
/// is protecting against.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/cycle_detector.hpp"
#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  args.reject_unknown();

  harness::ClaimSet claims("E5 message bounds (Lemma 3)");
  util::Table table({"instance", "k", "round t", "pruned max |S|", "bound (k-t+1)^(t-1)",
                     "naive max |S|", "claim"});

  struct Instance {
    std::string name;
    graph::Graph g;
  };
  util::Rng rng(3);
  std::vector<Instance> instances;
  instances.push_back({"K(10,10)", graph::complete_bipartite(10, 10)});
  instances.push_back({"K14", graph::complete(14)});
  instances.push_back({"layered C5 s=11 g=5", graph::layered_instance(5, 11, 5, rng).graph});
  instances.push_back({"layered C7 s=11 g=4", graph::layered_instance(7, 11, 4, rng).graph});

  // Runs the checker on edge 0 and collects the max bundle broadcast per
  // phase round (index 0 = seeds) across all nodes, read from the
  // EdgeCheckPrograms the run leaves on the simulator.
  struct Bundles {
    std::vector<std::size_t> by_round;
    bool overflow = false;
  };
  const core::Detector& checker = core::DetectorRegistry::builtin().require("edge_checker");
  const auto bundle_maxima = [&](congest::Simulator& sim, core::DetectorOptions opt) {
    opt.edge = sim.graph().edge(0);
    Bundles out;
    out.overflow = checker.run(sim, opt).overflow;
    out.by_round.assign(opt.k / 2 + 1, 0);
    sim.for_each_program<core::EdgeCheckProgram>(
        [&](graph::Vertex, const core::EdgeCheckProgram& prog) {
          const auto counts = prog.state().sent_counts();
          for (std::size_t r = 0; r < counts.size(); ++r) {
            out.by_round[r] = std::max(out.by_round[r], counts[r]);
          }
        });
    return out;
  };

  for (const auto& inst : instances) {
    const graph::IdAssignment ids = graph::IdAssignment::identity(inst.g.num_vertices());
    congest::Simulator sim(inst.g, ids);
    for (const unsigned k : {4u, 6u, 8u, 10u}) {
      core::DetectorOptions opt;
      opt.k = k;
      const Bundles pruned = bundle_maxima(sim, opt);

      core::DetectorOptions naive_opt = opt;
      naive_opt.pruning = core::PruningMode::kNaive;
      naive_opt.naive_cap = 200000;
      const Bundles naive = bundle_maxima(sim, naive_opt);

      for (unsigned g_round = 1; g_round < pruned.by_round.size(); ++g_round) {
        const unsigned t = g_round + 1;  // paper round index
        if (t > k / 2) break;
        const std::uint64_t bound = core::lemma3_bound(k, t);
        const std::size_t measured = pruned.by_round[g_round];
        const std::size_t naive_measured =
            g_round < naive.by_round.size() ? naive.by_round[g_round] : 0;
        const bool holds = measured <= bound;
        claims.check("bundle bound " + inst.name + " k=" + std::to_string(k) +
                         " t=" + std::to_string(t),
                     holds);
        std::string naive_text = std::to_string(naive_measured);
        if (naive.overflow) naive_text += " (capped)";
        table.row()
            .cell(inst.name)
            .cell(static_cast<std::uint64_t>(k))
            .cell(static_cast<std::uint64_t>(t))
            .cell(static_cast<std::uint64_t>(measured))
            .cell(bound)
            .cell(naive_text)
            .cell_ok(holds);
      }
    }
  }

  table.print(std::cout, "T5: max sequences per message vs Lemma 3 bound (naive for contrast)");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e5_message_bounds", argc, argv, run);
}
