/// \file a1_pruning_ablation.cpp
/// \brief Ablation A1 — what pruning buys: message volume vs instance size.
///
/// The paper motivates pruning with nodes "connected to u and/or v via many
/// vertex-disjoint paths of same length" (§3.2). Complete bipartite graphs
/// are exactly that worst case: the number of distinct u->...->x paths grows
/// polynomially with the side size, so naive append-and-forward bundles grow
/// with the graph while Algorithm 1's stay at the Lemma 3 constant. The
/// table sweeps the side size and compares max bundle, total traffic, and
/// detection outcome.
#include <iostream>

#include "core/detector.hpp"
#include "graph/generators.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto k = args.get<unsigned>("k", 8);
  args.reject_unknown();

  harness::ClaimSet claims("A1 pruning ablation");
  util::Table table({"K(d,d) side", "mode", "max |S|", "total KiB", "detected", "overflow",
                     "claim"});

  std::uint64_t bound = 1;
  for (unsigned t = 2; t <= k / 2; ++t) bound = std::max(bound, core::lemma3_bound(k, t));

  const core::Detector& checker = core::DetectorRegistry::builtin().require("edge_checker");
  std::size_t previous_naive_max = 0;
  for (const graph::Vertex d : {6u, 8u, 10u, 12u, 14u}) {
    const graph::Graph g = graph::complete_bipartite(d, d);
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());

    core::DetectorOptions pruned_opt;
    pruned_opt.k = k;
    pruned_opt.edge = g.edge(0);
    const auto pruned = checker.run_fresh(g, ids, pruned_opt);

    core::DetectorOptions naive_opt = pruned_opt;
    naive_opt.pruning = core::PruningMode::kNaive;
    naive_opt.naive_cap = 1u << 20;
    const auto naive = checker.run_fresh(g, ids, naive_opt);

    const bool pruned_bounded = pruned.max_bundle_sequences <= bound;
    const bool naive_grows = naive.max_bundle_sequences >= previous_naive_max;
    previous_naive_max = naive.max_bundle_sequences;
    const bool both_detect = !pruned.accepted && !naive.accepted;
    claims.check("pruned bundle <= Lemma 3 bound at d=" + std::to_string(d), pruned_bounded);
    claims.check("both modes detect at d=" + std::to_string(d), both_detect);
    claims.check("naive bundle monotone in d at d=" + std::to_string(d), naive_grows);

    table.row()
        .cell(static_cast<std::uint64_t>(d))
        .cell("algorithm 1")
        .cell(static_cast<std::uint64_t>(pruned.max_bundle_sequences))
        .cell(static_cast<double>(pruned.stats.total_bits) / 8192.0, 1)
        .cell(pruned.accepted ? "no" : "yes")
        .cell(pruned.overflow ? "yes" : "no")
        .cell_ok(pruned_bounded);
    table.row()
        .cell(static_cast<std::uint64_t>(d))
        .cell("naive")
        .cell(static_cast<std::uint64_t>(naive.max_bundle_sequences))
        .cell(static_cast<double>(naive.stats.total_bits) / 8192.0, 1)
        .cell(naive.accepted ? "no" : "yes")
        .cell(naive.overflow ? "yes" : "no")
        .cell_ok(true);
  }

  table.print(std::cout, "A1: bundle growth, Algorithm 1 vs naive (k=" + std::to_string(k) +
                             ", Lemma 3 bound = " + std::to_string(bound) + ")");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("a1_pruning_ablation", argc, argv, run);
}
