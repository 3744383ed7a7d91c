/// \file a3_scan_crossover.cpp
/// \brief Ablation A3 — property testing vs exhaustive scanning.
///
/// What does the ε-relaxation buy? The tester costs ⌈e²ln3/ε⌉·(⌊k/2⌋+2)
/// rounds and may miss sparse cycle populations; the exhaustive Phase-2 scan
/// costs m·(⌊k/2⌋+1) rounds and is exact. Sweeping ε at fixed m exposes the
/// crossover ε* = e²ln3·(⌊k/2⌋+2) / (m·(⌊k/2⌋+1)): above it the tester is
/// cheaper (often by orders of magnitude), below it one should simply scan.
/// Both columns must report the planted cycles on the far instance and stay
/// silent on the free one.
#include <cstdio>
#include <iostream>

#include "core/detector.hpp"
#include "core/scan.hpp"
#include "graph/far_generators.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const auto k = args.get<unsigned>("k", 5);
  args.reject_unknown();

  harness::ClaimSet claims("A3 tester vs exhaustive scan");

  util::Rng rng(23);
  graph::PlantedOptions popt;
  popt.k = k;
  popt.num_cycles = 6;
  popt.padding_leaves = 120;
  const auto far_inst = graph::planted_cycles_instance(popt, rng);
  const graph::IdAssignment ids = graph::IdAssignment::identity(far_inst.graph.num_vertices());
  const auto m = static_cast<double>(far_inst.graph.num_edges());

  // Exhaustive scan: exact, m*(k/2+1) rounds regardless of eps. The full
  // sweep is the honest round cost — certifying freeness (or not missing a
  // needle) requires visiting every edge; early exit only helps on lucky
  // positive instances.
  core::ScanOptions sopt;
  sopt.detect.k = k;
  sopt.stop_at_first = false;
  const auto scan = core::exhaustive_ck_scan(far_inst.graph, ids, sopt);
  claims.check("scan finds the planted cycles", scan.found);

  const double e2ln3 = 7.389056099 * 1.098612289;  // e^2 * ln 3 ≈ 8.1175
  const double crossover =
      e2ln3 * static_cast<double>(k / 2 + 2) / (m * static_cast<double>(k / 2 + 1));

  util::Table table({"eps", "tester rounds", "scan rounds (exact)", "tester cheaper",
                     "predicted winner", "agree"});
  const double eps_values[] = {0.5, 0.2, 0.05, 0.02, 0.01, 0.005, 0.002};
  for (const double eps : eps_values) {
    core::DetectorOptions topt;
    topt.k = k;
    topt.epsilon = eps;
    topt.seed = 3;
    const auto verdict = core::DetectorRegistry::builtin().require("tester").run_fresh(
        far_inst.graph, ids, topt);
    const bool tester_cheaper = verdict.stats.rounds_executed < scan.schedule_rounds;
    // Within 2x of the crossover the ceilings decide; only check the clear
    // cases.
    const bool clear = eps > 2 * crossover || eps < crossover / 2;
    const bool predicted_tester = eps > crossover;
    const bool agree = !clear || (tester_cheaper == predicted_tester);
    claims.check("crossover prediction at eps=" + util::format_double(eps, 3), agree);
    table.row()
        .cell(eps, 3)
        .cell(verdict.stats.rounds_executed)
        .cell(scan.schedule_rounds)
        .cell(tester_cheaper ? "yes" : "no")
        .cell(predicted_tester ? "tester" : "scan")
        .cell_ok(agree);
  }

  table.print(std::cout, "A3: rounds, tester vs exhaustive scan (m=" +
                             std::to_string(far_inst.graph.num_edges()) +
                             ", predicted crossover eps*=" + util::format_double(crossover, 4) +
                             ")");

  // Accuracy side: a single well-hidden cycle. The scan must find it; the
  // tester at moderate eps may legitimately miss it (it is not eps-far).
  graph::PlantedOptions needle;
  needle.k = k;
  needle.num_cycles = 1;
  needle.padding_leaves = 400;
  const auto needle_inst = graph::planted_cycles_instance(needle, rng);
  const graph::IdAssignment nids =
      graph::IdAssignment::identity(needle_inst.graph.num_vertices());
  core::ScanOptions nopt;
  nopt.detect.k = k;
  const auto needle_scan = core::exhaustive_ck_scan(needle_inst.graph, nids, nopt);
  claims.check("scan finds the single hidden cycle (exactness)", needle_scan.found);
  std::printf("needle instance (m=%zu, one C%u): scan found=%s after %zu edge checks; the\n"
              "tester's guarantee does not cover it (certified eps=%.4f only)\n",
              needle_inst.graph.num_edges(), k, needle_scan.found ? "yes" : "no",
              needle_scan.edges_checked, needle_inst.certified_epsilon());
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("a3_scan_crossover", argc, argv, run);
}
