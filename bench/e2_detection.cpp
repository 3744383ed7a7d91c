/// \file e2_detection.cpp
/// \brief Experiment T2 — Theorem 1, completeness on ε-far instances.
///
/// Paper claim: with ⌈e²·ln3/ε⌉ repetitions, an instance that is ε-far from
/// Ck-free is rejected with probability >= 2/3. Instances carry an explicit
/// farness certificate (planted edge-disjoint cycle packings); detection
/// rates are estimated over independent trials with 95% Wilson intervals.
/// The theoretical per-repetition bound (ε/e² for a unique minimum landing
/// on a cycle edge) is extremely loose — the measured rates illustrate by
/// how much.
#include <iostream>
#include <memory>

#include "core/detector.hpp"
#include "core/phase1.hpp"
#include "engine/engine.hpp"
#include "graph/far_generators.hpp"
#include "harness/claims.hpp"
#include "harness/estimator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const std::size_t trials = args.get<std::size_t>("trials", 48);
  const std::size_t cycles = args.get<std::size_t>("cycles", 5);
  args.reject_unknown();

  harness::ClaimSet claims("E2 detection (Theorem 1, completeness)");
  util::Table table(
      {"k", "instance", "m", "cert. eps", "reps", "trials", "detect rate", "95% CI low", "claim"});
  util::ThreadPool& pool = util::global_pool();

  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  // One engine for the whole bench: trials run as one query batch per
  // instance (run_batch), lanes leasing cached Simulator sessions that the
  // tester resets between trials — the CSR table and arenas are built once
  // per lane, not once per trial. Seeds are the estimate_rate scheme, so
  // rates match any thread count.
  const engine::DetectionEngine eng{engine::EngineOptions{.pool = &pool}};
  const auto measure = [&](const graph::FarInstance& inst, unsigned k) {
    const double eps = inst.certified_epsilon();
    const std::size_t reps = core::recommended_repetitions(eps);
    graph::IdAssignment ids = graph::IdAssignment::identity(inst.graph.num_vertices());
    const engine::PinnedGraphPtr pinned = engine::pin(inst.graph, std::move(ids));
    core::DetectorOptions base;
    base.k = k;
    base.epsilon = eps;
    const auto estimate =
        harness::estimate_detector_rate(eng, pinned, tester, base, trials, 4242 + k);

    const bool holds = estimate.rate() >= 2.0 / 3.0;
    claims.check("detection >= 2/3 on " + inst.description, holds);
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(inst.description)
        .cell(static_cast<std::uint64_t>(inst.graph.num_edges()))
        .cell(eps, 4)
        .cell(static_cast<std::uint64_t>(reps))
        .cell(static_cast<std::uint64_t>(trials))
        .cell(estimate.rate(), 3)
        .cell(estimate.interval.low, 3)
        .cell_ok(holds);
  };

  struct Config {
    unsigned k;
    std::size_t padding;  // dilutes epsilon
  };
  const Config configs[] = {{3, 0}, {3, 60}, {4, 0},  {4, 60}, {5, 0},
                            {5, 60}, {6, 0},  {6, 90}, {7, 0},  {7, 90}};
  for (const auto& config : configs) {
    util::Rng rng(17 * config.k + config.padding);
    graph::PlantedOptions popt;
    popt.k = config.k;
    popt.num_cycles = cycles;
    popt.padding_leaves = config.padding;
    measure(graph::planted_cycles_instance(popt, rng), config.k);
  }

  // Noisy instances: the planted cycles sit inside a girth-(>k) background,
  // so Phase 2 must cope with irrelevant traffic and decoy paths.
  for (const unsigned k : {4u, 5u, 6u}) {
    util::Rng rng(900 + k);
    graph::NoisyFarOptions nopt;
    nopt.k = k;
    nopt.num_cycles = cycles;
    nopt.background_n = 90;
    nopt.background_m = 140;
    measure(graph::noisy_far_instance(nopt, rng), k);
  }

  table.print(std::cout, "T2: rejection rate on certified eps-far instances (bound: 2/3)");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("e2_detection", argc, argv, run);
}
