/// \file quickstart.cpp
/// \brief Minimal tour of the public API.
///
/// Builds a small network, runs the distributed Ck-freeness tester from the
/// paper, prints the verdict with its witness cycle, and then uses the
/// deterministic single-edge checker directly.
///
///   ./quickstart [--k=5] [--n=64] [--extra=12] [--seed=7] [--eps=0.1]
#include <cstdio>

#include "core/detector.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/cli.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto k = args.get<unsigned>("k", 5);
  const auto n = args.get<graph::Vertex>("n", 64);
  const std::size_t extra = args.get<std::size_t>("extra", 12);
  const std::uint64_t seed = args.get<std::uint64_t>("seed", 7);
  const double eps = args.get<double>("eps", 0.1);
  args.reject_unknown();

  // 1. Build a network: a random connected graph with a few extra edges —
  //    enough for some short cycles to appear.
  util::Rng rng(seed);
  const graph::Graph g = graph::random_connected(n, n - 1 + extra, rng);
  const graph::IdAssignment ids = graph::IdAssignment::random_quadratic(n, rng);
  std::printf("network: n=%u m=%zu (IDs drawn from [0, n^2))\n", g.num_vertices(), g.num_edges());

  // 2. Run the paper's tester: Phase 1 picks random edge ranks, Phase 2 runs
  //    the pruned append-and-forward search, repeated ceil(e^2 ln3 / eps)
  //    times (Theorem 1).
  const core::DetectorRegistry& registry = core::DetectorRegistry::builtin();
  core::DetectorOptions topt;
  topt.k = k;
  topt.epsilon = eps;
  topt.seed = seed;
  const core::Verdict verdict = registry.require("tester").run_fresh(g, ids, topt);
  std::printf("tester: C%u-freeness -> %s  (repetitions=%zu, rounds=%llu, max bundle=%zu seqs)\n",
              k, verdict.accepted ? "ACCEPT" : "REJECT", verdict.repetitions,
              static_cast<unsigned long long>(verdict.stats.rounds_executed),
              verdict.max_bundle_sequences);
  if (!verdict.accepted) {
    std::printf("  witness cycle (validated against the graph):");
    for (const auto v : verdict.witness) std::printf(" %u", v);
    std::printf("\n  rejecting nodes: %zu\n", verdict.rejecting_nodes);
  }

  // 3. The deterministic core: check one specific edge. If a Ck passes
  //    through it, detection is certain — no farness assumption (Lemma 2).
  const graph::Edge probe = g.edge(0);
  core::DetectorOptions eopt;
  eopt.k = k;
  eopt.edge = probe;
  const bool found = !registry.require("edge_checker").run_fresh(g, ids, eopt).accepted;
  const bool truth = graph::has_cycle_through_edge(g, k, probe.first, probe.second);
  std::printf("edge (%u,%u): checker=%s oracle=%s — always identical\n", probe.first, probe.second,
              found ? "C-found" : "none", truth ? "C-found" : "none");
  return found == truth ? 0 : 1;
}

int main(int argc, char** argv) {
  return decycle::util::run_main("example_quickstart", argc, argv, run);
}
