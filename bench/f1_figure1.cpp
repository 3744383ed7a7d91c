/// \file f1_figure1.cpp
/// \brief Figure 1 — the C5 gadget where single-choice forwarding fails.
///
/// The paper's Figure 1: a C5 (u, x, z, y, v) through e = {u, v}, with x and
/// y adjacent to BOTH endpoints. Both x and y receive (u) and (v) in round
/// 1; if each forwards only one sequence and both happen to keep the u-side
/// (deterministic tie-breaking does exactly that), z receives two sequences
/// starting at u and detects nothing. Algorithm 1's pruning keeps both
/// sequences — because each still has a disjoint completion — and z rejects.
///
/// "Single choice" is the naive pruner with a family cap of 1, which keeps
/// the lexicographically first sequence, faithfully reproducing the failure
/// mode described under the figure. Scaled variants widen the gadget with
/// more parallel 2-paths.
#include <cstdio>
#include <iostream>

#include "core/detector.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

/// The Figure 1 gadget, optionally widened: u=0, v=1, z=2, then `width`
/// middle vertices each adjacent to u, v. Middle vertex x_i is also adjacent
/// to z, closing C5s (u, x_i, z, x_j, v) for i != j.
decycle::graph::Graph figure1_gadget(unsigned width) {
  decycle::graph::GraphBuilder b;
  b.add_edge(0, 1);  // e = {u, v}
  for (unsigned i = 0; i < width; ++i) {
    const auto x = static_cast<decycle::graph::Vertex>(3 + i);
    b.add_edge(0, x);
    b.add_edge(1, x);
    b.add_edge(x, 2);  // to z
  }
  return b.build();
}

}  // namespace

int run(const decycle::util::Args& args) {
  using namespace decycle;
  args.reject_unknown();

  harness::ClaimSet claims("F1 Figure 1 (C5 gadget)");
  util::Table table({"gadget width", "strategy", "max |S|", "detected", "witness", "claim"});

  for (const unsigned width : {2u, 4u, 8u, 16u}) {
    const graph::Graph g = figure1_gadget(width);
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
    const bool truth = graph::has_cycle_through_edge(g, 5, 0, 1);

    struct Strategy {
      const char* name;
      core::PruningMode mode;
      std::size_t cap;
      bool expect_detect;
    };
    const Strategy strategies[] = {
        {"algorithm 1 (pruned)", core::PruningMode::kRepresentative, 0, true},
        {"single-choice forward", core::PruningMode::kNaive, 1, false},
        {"naive forward-all", core::PruningMode::kNaive, 1u << 18, true},
    };
    for (const auto& strat : strategies) {
      core::DetectorOptions opt;
      opt.k = 5;
      opt.edge = graph::Edge{0, 1};
      opt.pruning = strat.mode;
      if (strat.cap != 0) opt.naive_cap = strat.cap;
      const auto result =
          core::DetectorRegistry::builtin().require("edge_checker").run_fresh(g, ids, opt);
      const bool found = !result.accepted;
      const bool as_expected = found == strat.expect_detect && truth;
      claims.check(std::string(strat.name) + " at width " + std::to_string(width) +
                       (strat.expect_detect ? " detects" : " misses"),
                   as_expected);
      std::string witness = "-";
      if (found) {
        witness.clear();
        for (const auto v : result.witness) {
          if (!witness.empty()) witness.push_back('-');
          witness.append(std::to_string(v));
        }
      }
      table.row()
          .cell(static_cast<std::uint64_t>(width))
          .cell(strat.name)
          .cell(static_cast<std::uint64_t>(result.max_bundle_sequences))
          .cell(found ? "yes" : "no")
          .cell(witness)
          .cell_ok(as_expected);
    }
  }

  table.print(std::cout,
              "F1: Figure 1 gadget — pruning keeps enough sequences, single choice does not");
  std::printf("(the C5 exists in every row; only the forwarding strategy differs)\n");
  return claims.summarize();
}

int main(int argc, char** argv) {
  return decycle::util::run_main("f1_figure1", argc, argv, run);
}
