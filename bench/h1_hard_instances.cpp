/// \file h1_hard_instances.cpp
/// \brief H1 — dense shared-vertex C5 packings (Behrend-graph substitute).
///
/// The paper ([20], cited in §1.1) uses Behrend-graph constructions to show
/// that the sampling techniques behind the k <= 4 testers cannot detect
/// C_k for k >= 5 in O(1) rounds: those instances pack many edge-disjoint
/// k-cycles through shared high-degree vertices, so local sampling almost
/// never assembles a full cycle. Building literal Behrend graphs requires
/// progression-free sets; the layered construction here is the substitute
/// (documented in DESIGN.md/EXPERIMENTS.md): s·g edge-disjoint C5s, every
/// vertex on g of them, degree 2g — the same operative property.
///
/// Measurements: Algorithm 1's detection rate at the prescribed budget,
/// bundle sizes against the Lemma 3 bound (density must NOT inflate them),
/// and the naive forwarder's bundle growth for contrast.
#include <iostream>

#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "harness/claims.hpp"
#include "harness/estimator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const std::size_t trials = args.get<std::size_t>("trials", 24);
  const auto k = args.get<unsigned>("k", 5);
  args.reject_unknown();

  harness::ClaimSet claims("H1 hard instances (Behrend substitute)");
  util::Table table({"layers s", "shifts g", "m", "cycles/vertex", "detect rate", "max |S|",
                     "Lemma3 bound", "naive max |S|", "claim"});
  util::ThreadPool& pool = util::global_pool();
  const core::DetectorRegistry& registry = core::DetectorRegistry::builtin();

  std::uint64_t bound = 1;
  for (unsigned t = 2; t <= k / 2; ++t) bound = std::max(bound, core::lemma3_bound(k, t));

  for (const auto& [s, shifts] : std::vector<std::pair<graph::Vertex, unsigned>>{
           {9, 2}, {9, 4}, {13, 6}, {17, 8}}) {
    util::Rng rng(19 * s + shifts);
    const auto inst = graph::layered_instance(k, s, shifts, rng);
    const graph::IdAssignment ids = graph::IdAssignment::identity(inst.graph.num_vertices());

    const auto detection = harness::estimate_rate(
        [&](std::size_t, std::uint64_t seed) {
          core::DetectorOptions topt;
          topt.k = k;
          topt.epsilon = inst.certified_epsilon();
          topt.seed = seed;
          return !registry.require("tester").run_fresh(inst.graph, ids, topt).accepted;
        },
        trials, 31 * s, &pool);

    const core::Detector& checker = registry.require("edge_checker");
    core::DetectorOptions eopt;
    eopt.k = k;
    eopt.edge = inst.graph.edge(0);
    const auto pruned = checker.run_fresh(inst.graph, ids, eopt);
    core::DetectorOptions nopt = eopt;
    nopt.pruning = core::PruningMode::kNaive;
    nopt.naive_cap = 1u << 20;
    const auto naive = checker.run_fresh(inst.graph, ids, nopt);

    const bool detect_ok = detection.rate() >= 2.0 / 3.0;
    const bool bound_ok = pruned.max_bundle_sequences <= bound && !pruned.overflow;
    claims.check("detection >= 2/3 at s=" + std::to_string(s) + " g=" + std::to_string(shifts),
                 detect_ok);
    claims.check("bundles bounded at s=" + std::to_string(s) + " g=" + std::to_string(shifts),
                 bound_ok);
    table.row()
        .cell(static_cast<std::uint64_t>(s))
        .cell(static_cast<std::uint64_t>(shifts))
        .cell(static_cast<std::uint64_t>(inst.graph.num_edges()))
        .cell(static_cast<std::uint64_t>(shifts))  // each vertex lies on `shifts` planted cycles
        .cell(detection.rate(), 3)
        .cell(static_cast<std::uint64_t>(pruned.max_bundle_sequences))
        .cell(bound)
        .cell(static_cast<std::uint64_t>(naive.max_bundle_sequences))
        .cell_ok(detect_ok && bound_ok);
  }

  table.print(std::cout,
              "H1: layered C" + std::to_string(k) +
                  " packings — detection and bundle bounds under density");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("h1_hard_instances", argc, argv, run);
}
