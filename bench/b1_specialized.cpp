/// \file b1_specialized.cpp
/// \brief Comparison B1 — the paper's algorithm vs the specialized testers
/// it generalizes ([7] for triangles, [20] for C4) and the centralized
/// color-coding reference.
///
/// The paper's point is qualitative: [7]/[20]-style sampling works for
/// k <= 4 and provably cannot extend to k >= 5, while Algorithm 1 covers
/// every k at O(1/ε) rounds. The table is built by iterating the detector
/// registry (core/detector.hpp): every registered algorithm whose
/// capabilities admit k runs on the same certified instances through the
/// one unified interface — detection rate on the ε-far instance, acceptance
/// on the Ck-free instance, rounds used. Capability gating is what renders
/// the paper's contribution visible: at k = 5 the specialized testers
/// simply vanish from the table (their k range excludes it), leaving only
/// the general algorithms.
///
/// Claims: every detector must accept the free instance (1-sided error);
/// the property testers (tester, threshold, and the specialized ones inside
/// their k range, at their prescribed budgets) must detect at rate >= 2/3.
/// The edge checker (one random edge per trial — detection scales with the
/// fraction of edges on cycles) and single-δ color coding report their
/// rates without a detection claim.
#include <iostream>
#include <string>
#include <string_view>

#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "harness/claims.hpp"
#include "harness/estimator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  const std::size_t trials = args.get<std::size_t>("trials", 40);
  args.reject_unknown();

  harness::ClaimSet claims("B1 specialized-tester comparison");
  util::Table table({"k", "algorithm", "far-instance detect", "free-instance accept", "rounds",
                     "claim"});
  const engine::DetectionEngine eng{engine::EngineOptions{.pool = &util::global_pool()}};
  const core::DetectorRegistry& registry = core::DetectorRegistry::builtin();

  for (const unsigned k : {3u, 4u, 5u}) {
    util::Rng rng(41 * k);
    graph::PlantedOptions popt;
    popt.k = k;
    popt.num_cycles = 6;
    popt.padding_leaves = 30;
    const auto far_inst = graph::planted_cycles_instance(popt, rng);
    const graph::Graph free_inst =
        graph::ck_free_instance(k % 2 == 1 ? graph::CkFreeFamily::kBipartite
                                           : graph::CkFreeFamily::kHighGirth,
                                k, 60, rng);
    const double eps = far_inst.certified_epsilon();
    const graph::IdAssignment far_ids =
        graph::IdAssignment::identity(far_inst.graph.num_vertices());
    const engine::PinnedGraphPtr far_pin = engine::pin(far_inst.graph, far_ids);
    const graph::IdAssignment free_ids = graph::IdAssignment::identity(free_inst.num_vertices());

    std::size_t det_index = 0;
    for (const core::Detector* det : registry.detectors()) {
      ++det_index;
      // Capability gating, not special cases: a detector whose k range
      // excludes this k (c4 at k != 4, triangle at k != 3) has no row.
      if (!registry.validate_k(*det, k).empty()) continue;
      const std::string_view name = det->name();

      core::DetectorOptions base;
      base.k = k;
      base.epsilon = eps;
      // The specialized samplers run at their prescribed O(1/ε²)-style
      // iteration budget; everything else uses its own default.
      if (name == "c4" || name == "triangle") base.repetitions = 256;

      const auto far_rate = harness::estimate_detector_rate(eng, far_pin, *det, base, trials,
                                                            6000 + 100 * det_index + k);

      core::DetectorOptions free_opt = base;
      free_opt.seed = 5;
      const bool free_ok = det->run_fresh(free_inst, free_ids, free_opt).accepted;

      // One pinned-seed run supplies the representative rounds figure (the
      // round count is seed-invariant for the fixed-schedule detectors and
      // within one round of it for the rest).
      core::DetectorOptions probe_opt = base;
      probe_opt.seed = 1;
      const core::Verdict probe = det->run_fresh(far_inst.graph, far_ids, probe_opt);

      const bool claim_detection = name != "edge_checker" && name != "color_coding";
      const bool ok = free_ok && (!claim_detection || far_rate.rate() >= 2.0 / 3.0);
      claims.check(std::string(name) + " at k=" + std::to_string(k), ok);
      table.row()
          .cell(static_cast<std::uint64_t>(k))
          .cell(std::string(name) + (claim_detection ? "" : " (no detection claim)"))
          .cell(far_rate.rate(), 3)
          .cell(free_ok ? "yes" : "NO")
          .cell(probe.stats.rounds_executed)
          .cell_ok(ok);
    }
    if (k == 5) {
      table.row()
          .cell(5u)
          .cell("[7]/[20] techniques")
          .cell("n/a — provably fail for k>=5")
          .cell("n/a")
          .cell(0u)
          .cell_ok(true);
    }
  }

  table.print(std::cout, "B1: this paper vs specialized distributed testers and centralized "
                         "color coding (same certified instances, one registry)");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("b1_specialized", argc, argv, run);
}
