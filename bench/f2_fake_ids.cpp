/// \file f2_fake_ids.cpp
/// \brief §3.3 walkthrough — why Instruction 14's fake IDs are necessary.
///
/// On a bare k-cycle, a node at paper-round t knows only the t-1 IDs of the
/// one sequence it received: without the fake IDs, no (k-t)-subset of I
/// exists, 𝒳 is empty, C is empty, and the sequence is dropped — the paper
/// walks through exactly this on a C9 with IDs 1..9 and edge {1,9}. With
/// fake IDs the sequence survives and detection goes through.
///
/// The ablation shows the instruction is load-bearing for EVERY k >= 4, not
/// just long cycles: at paper-round 2 the candidate pool I consists of at
/// most the two seed IDs {u, v} no matter how dense the graph is, so
/// without fakes no (k-2)-element completion set exists and nothing is ever
/// forwarded past the first round. k = 3 has no pruning round and is
/// unaffected.
#include <iostream>

#include "core/detector.hpp"
#include "graph/generators.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  args.reject_unknown();

  harness::ClaimSet claims("F2 fake IDs (Instruction 14 ablation)");
  util::Table table({"instance", "k", "fake IDs on", "fake IDs off", "claim"});

  const core::Detector& checker = core::DetectorRegistry::builtin().require("edge_checker");
  auto detect = [&](const graph::Graph& g, unsigned k, bool fake_ids) {
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
    core::DetectorOptions opt;
    opt.k = k;
    opt.fake_ids = fake_ids;
    // Edge {n-1, 0} is the paper's {9, 1} up to renaming.
    opt.edge = g.edge(0);
    return !checker.run_fresh(g, ids, opt).accepted;
  };

  // Bare cycles: detection must vanish without fake IDs for every k >= 4
  // (at paper-round 2 a node knows a single foreign ID — not enough to build
  // any completion set). k = 3 has no pruning round and is unaffected.
  for (const unsigned k : {3u, 4u, 5u, 7u, 9u, 11u}) {
    const graph::Graph g = graph::cycle(k);
    const bool with_fakes = detect(g, k, true);
    const bool without = detect(g, k, false);
    const bool expected_without = k == 3;  // no pruning rounds for k=3
    const bool holds = with_fakes && without == expected_without;
    claims.check("bare C" + std::to_string(k) + ": fakes on=detect, off=" +
                     (expected_without ? "detect" : "miss"),
                 holds);
    table.row()
        .cell("cycle C" + std::to_string(k))
        .cell(static_cast<std::uint64_t>(k))
        .cell(with_fakes ? "detect" : "miss")
        .cell(without ? "detect" : "miss")
        .cell_ok(holds);
  }

  // Even on the densest instance the round-2 pool is {u, v}: without fakes,
  // K9 misses its C4s too — Instruction 14 is universal, not a long-cycle
  // patch.
  {
    const graph::Graph g = graph::complete(9);
    const bool with_fakes = detect(g, 4, true);
    const bool without = detect(g, 4, false);
    const bool holds = with_fakes && !without;
    claims.check("K9 k=4: even dense graphs miss without fakes", holds);
    table.row()
        .cell("complete K9")
        .cell(4u)
        .cell(with_fakes ? "detect" : "miss")
        .cell(without ? "detect" : "miss")
        .cell_ok(holds);
  }

  table.print(std::cout, "F2: Instruction 14 ablation — C9 walkthrough of paper §3.3, generalized");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("f2_fake_ids", argc, argv, run);
}
