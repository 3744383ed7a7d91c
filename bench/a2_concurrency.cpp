/// \file a2_concurrency.cpp
/// \brief Ablation A2 — the prioritized search under full concurrency.
///
/// In Phase 1 every node launches Phase 2 for its own minimum-rank edge;
/// executions collide and are arbitrated by (rank, u, v) priority. The
/// guarantee used in Theorem 1's proof is only about the globally minimal
/// edge (never preempted); all other executions are best-effort. This
/// experiment measures what concurrency does in practice:
///
///   isolated model  — detection probability if ONLY the global minimum ran:
///                     Pr[unique minimum's edge lies on a k-cycle],
///                     estimated by drawing ranks centrally and consulting
///                     the exact oracle;
///   concurrent      — the real tester's per-repetition detection rate.
///
/// Expectation: concurrent >= isolated (surviving secondary executions add
/// bonus detections, discarding only removes them), and soundness is
/// preserved (every concurrent rejection validated internally).
#include <atomic>
#include <iostream>

#include "core/detector.hpp"
#include "core/phase1.hpp"
#include "graph/far_generators.hpp"
#include "graph/subgraph.hpp"
#include "harness/claims.hpp"
#include "harness/estimator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const std::size_t trials = args.get<std::size_t>("trials", 300);
  args.reject_unknown();

  harness::ClaimSet claims("A2 concurrency (prioritized search)");
  util::Table table({"instance", "k", "isolated rate", "concurrent rate", "switches/run",
                     "discards/run", "claim"});
  util::ThreadPool& pool = util::global_pool();

  struct Case {
    std::string name;
    graph::FarInstance inst;
    unsigned k;
  };
  util::Rng gen_rng(8);
  std::vector<Case> cases;
  {
    graph::PlantedOptions p;
    p.k = 5;
    p.num_cycles = 6;
    p.padding_leaves = 40;
    cases.push_back({"planted C5 + padding", graph::planted_cycles_instance(p, gen_rng), 5});
    graph::NoisyFarOptions nf;
    nf.k = 6;
    nf.num_cycles = 6;
    nf.background_n = 90;
    nf.background_m = 150;
    cases.push_back({"noisy C6", graph::noisy_far_instance(nf, gen_rng), 6});
    cases.push_back({"layered C5", graph::layered_instance(5, 9, 3, gen_rng), 5});
  }

  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  for (const auto& c : cases) {
    const graph::Graph& g = c.inst.graph;
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());

    // Which edges lie on a k-cycle (once, centrally).
    std::vector<char> on_cycle(g.num_edges(), 0);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.edge(e);
      on_cycle[e] = graph::has_cycle_through_edge(g, c.k, u, v) ? 1 : 0;
    }

    // Isolated model: unique min rank AND its edge on a cycle.
    const auto isolated = harness::estimate_rate(
        [&](std::size_t, std::uint64_t seed) {
          util::Rng rng(seed);
          const std::uint64_t range =
              static_cast<std::uint64_t>(g.num_edges()) * g.num_edges();
          std::uint64_t best = ~std::uint64_t{0};
          std::size_t best_edge = 0, best_count = 0;
          for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
            const std::uint64_t r = core::draw_rank(rng, range);
            if (r < best) {
              best = r;
              best_edge = e;
              best_count = 1;
            } else if (r == best) {
              ++best_count;
            }
          }
          return best_count == 1 && on_cycle[best_edge] == 1;
        },
        trials, 555, &pool);

    // Concurrent: one-repetition tester runs.
    std::atomic<std::size_t> switches{0}, discards{0};
    const auto concurrent = harness::estimate_rate(
        [&](std::size_t, std::uint64_t seed) {
          core::DetectorOptions topt;
          topt.k = c.k;
          topt.repetitions = 1;
          topt.seed = seed;
          const auto verdict = tester.run_fresh(g, ids, topt);
          switches.fetch_add(core::counter_value(tester, verdict.counters, "switches_total"),
                             std::memory_order_relaxed);
          discards.fetch_add(core::counter_value(tester, verdict.counters, "discarded_total"),
                             std::memory_order_relaxed);
          return !verdict.accepted;
        },
        trials, 777, &pool);

    // Wilson intervals overlap handling: require concurrent point estimate
    // to clear the isolated lower bound (bonus detections never hurt).
    const bool holds = concurrent.rate() >= isolated.interval.low;
    claims.check("concurrent >= isolated on " + c.name, holds);
    table.row()
        .cell(c.name)
        .cell(static_cast<std::uint64_t>(c.k))
        .cell(isolated.rate(), 3)
        .cell(concurrent.rate(), 3)
        .cell(static_cast<double>(switches.load()) / static_cast<double>(trials), 1)
        .cell(static_cast<double>(discards.load()) / static_cast<double>(trials), 1)
        .cell_ok(holds);
  }

  table.print(std::cout,
              "A2: per-repetition detection — isolated-minimum model vs concurrent tester");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("a2_concurrency", argc, argv, run);
}
