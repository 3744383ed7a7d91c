/// \file c1_limitations.cpp
/// \brief C1 — the conclusion's negative results, made executable (paper §4).
///
/// The paper explains why its technique does not extend to (a) patterns H =
/// k-cycle + chord and (b) induced k-cycles: the pruning and the final
/// pairing are oblivious to chords, so the witness the algorithm settles on
/// may be a chordless cycle when a chorded one was wanted, or a chorded one
/// when an induced one was wanted. We build a gadget with two C5s through
/// the probed edge — one chorded, one induced — and show:
///
///   * plain Ck detection works on it (the paper's positive result);
///   * a hypothetical induced-C5 tester built by filtering Algorithm 1's
///     witness accepts/rejects the WRONG way around on suitable ID
///     assignments (the witness pairing picks the first disjoint pair, which
///     the IDs can steer to either cycle);
///   * the exact induced oracle (graph/subgraph.hpp) disagrees — proving the
///     filter-based approach is not a tester, exactly as §4 argues.
#include <iostream>

#include "core/detector.hpp"
#include "graph/subgraph.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace decycle;

/// Two C5s through e = {u, v}: the "x side" (u, x1, z, x2, v) and the
/// "y side" (u, y1, z, y2, v), sharing the apex z. \p chord_on_x adds the
/// chord {x1, v} to the x-side cycle.  Vertex numbering controls which
/// sequences sort first at the apex — the whole point of the experiment.
graph::Graph two_c5_gadget(bool chord_on_x, graph::Vertex u, graph::Vertex v, graph::Vertex x1,
                           graph::Vertex x2, graph::Vertex y1, graph::Vertex y2,
                           graph::Vertex z) {
  graph::GraphBuilder b;
  b.add_edge(u, v);
  b.add_edge(u, x1);
  b.add_edge(x1, z);
  b.add_edge(z, x2);
  b.add_edge(x2, v);
  b.add_edge(u, y1);
  b.add_edge(y1, z);
  b.add_edge(z, y2);
  b.add_edge(y2, v);
  if (chord_on_x) b.add_edge(x1, v);  // chord of the x-side C5
  return b.build();
}

}  // namespace

int run(const decycle::util::Args& args) {
  args.reject_unknown();

  harness::ClaimSet claims("C1 limitations (paper §4)");
  // Every scenario probes the checker on edge {0, 1} = {u, v} for C5.
  const core::Detector& checker = core::DetectorRegistry::builtin().require("edge_checker");
  core::DetectorOptions opt;
  opt.k = 5;
  opt.edge = graph::Edge{0, 1};
  util::Table table({"scenario", "witness returned", "witness chorded", "induced C5 exists",
                     "filter-tester verdict", "claim"});

  // Scenario A: x side (small IDs, wins the pairing) carries the chord; the
  // induced C5 lives on the y side. The filter-based "induced tester"
  // inspects the returned witness, sees a chord, and wrongly accepts.
  {
    const graph::Graph g = two_c5_gadget(/*chord_on_x=*/true, 0, 1, 2, 3, 4, 5, 6);
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
    const core::Verdict result = checker.run_fresh(g, ids, opt);
    const bool found = !result.accepted;
    const bool witness_chorded =
        found && !graph::validate_induced_cycle(g, result.witness);
    const bool induced_exists = graph::find_induced_cycle_through_edge(g, 5, 0, 1).has_value();
    const bool filter_rejects = found && !witness_chorded;
    // The failure the paper predicts: induced C5 exists but the filter
    // tester accepts because the witness it saw was chorded.
    const bool demonstrates = found && witness_chorded && induced_exists && !filter_rejects;
    claims.check("A: plain C5 detection works", found);
    claims.check("A: filter-tester misses the induced C5", demonstrates);
    table.row()
        .cell("A: chord on low-ID side")
        .cell(found ? "chorded cycle" : "-")
        .cell(witness_chorded ? "yes" : "no")
        .cell(induced_exists ? "yes" : "no")
        .cell(filter_rejects ? "reject" : "accept (WRONG)")
        .cell_ok(demonstrates);
  }

  // Scenario B: swap the ID roles — now the chordless side wins the pairing
  // and the SAME filter tester rejects; its verdict depends on IDs, not on
  // the graph property. (A correct tester's accept/reject may not flip under
  // relabeling.)
  {
    const graph::Graph g = two_c5_gadget(/*chord_on_x=*/true, 0, 1, 4, 5, 2, 3, 6);
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
    const core::Verdict result = checker.run_fresh(g, ids, opt);
    const bool found = !result.accepted;
    const bool witness_chorded =
        found && !graph::validate_induced_cycle(g, result.witness);
    const bool induced_exists = graph::find_induced_cycle_through_edge(g, 5, 0, 1).has_value();
    const bool filter_rejects = found && !witness_chorded;
    const bool demonstrates = found && !witness_chorded && induced_exists && filter_rejects;
    claims.check("B: relabeled gadget flips the filter-tester verdict", demonstrates);
    table.row()
        .cell("B: chord on high-ID side")
        .cell(found ? "induced cycle" : "-")
        .cell(witness_chorded ? "yes" : "no")
        .cell(induced_exists ? "yes" : "no")
        .cell(filter_rejects ? "reject" : "accept")
        .cell_ok(demonstrates);
  }

  // Scenario C: H = C5-with-chord as the target pattern. Only the y side is
  // an H (chorded); the witness pairing returns the chordless x side, so a
  // "reject iff witness is chorded" H-detector misses H entirely.
  {
    const graph::Graph g = two_c5_gadget(/*chord_on_x=*/false, 0, 1, 2, 3, 4, 5, 6);
    // Add the chord on the y side manually.
    graph::GraphBuilder b;
    for (const auto& [a, c] : g.edges()) b.add_edge(a, c);
    b.add_edge(4, 1);  // chord {y1, v}
    const graph::Graph g2 = b.build();
    const graph::IdAssignment ids = graph::IdAssignment::identity(g2.num_vertices());
    const core::Verdict result = checker.run_fresh(g2, ids, opt);
    const bool found = !result.accepted;
    const bool witness_chorded =
        found && !graph::validate_induced_cycle(g2, result.witness);
    // H exists: y-side C5 with its chord.
    const std::vector<graph::Vertex> y_cycle{0, 4, 6, 5, 1};
    const bool h_exists = graph::validate_cycle(g2, y_cycle) &&
                          !graph::validate_induced_cycle(g2, y_cycle);
    const bool demonstrates = found && !witness_chorded && h_exists;
    claims.check("C: witness filter misses the chorded pattern H", demonstrates);
    table.row()
        .cell("C: H = C5+chord target")
        .cell(found ? (witness_chorded ? "chorded" : "chordless") : "-")
        .cell(witness_chorded ? "yes" : "no")
        .cell("n/a (H target)")
        .cell(witness_chorded ? "reject" : "accept (misses H)")
        .cell_ok(demonstrates);
  }

  table.print(std::cout,
              "C1: §4 limitations — pruning/pairing is chord-oblivious, so witness filtering is "
              "not a tester for H-freeness or induced Ck-freeness");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("c1_limitations", argc, argv, run);
}
