/// \file paper_walkthrough.cpp
/// \brief The paper's two worked examples, traced round by round.
///
/// Drives EdgeDetectState instances by hand (no simulator) so every bundle
/// is visible, reproducing:
///
///   1. §3.3's C9 narrative — IDs 1..9 around a cycle, edge {1,9}: node 3
///      receives (1,2) and must forward (1,2,3), which only works because
///      Instruction 14 adds the fake IDs {-1..-6}. The trace is printed with
///      fake IDs on and off.
///   2. Figure 1 — the C5 through {u,v} where x and y hear both endpoints;
///      the trace shows the pruned bundle keeping both (u,x) and (v,x).
///
///   ./paper_walkthrough
#include <cstdio>
#include <string>
#include <vector>

#include "core/detect_state.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/cli.hpp"

namespace {

using namespace decycle;
using core::EdgeDetectState;
using core::IdSeq;

std::string bundle_to_string(const std::vector<IdSeq>& bundle) {
  if (bundle.empty()) return "(nothing)";
  std::string out;
  for (const auto& s : bundle) {
    if (!out.empty()) out += ' ';
    out += core::to_string(s);
  }
  return out;
}

/// Runs Phase 2 on an arbitrary graph by hand, printing each node's bundle.
/// Node IDs are vertex+1 so the output matches the paper's 1-based IDs.
bool trace_phase2(const graph::Graph& g, unsigned k, graph::Vertex u, graph::Vertex v,
                  bool fake_ids, bool verbose) {
  core::DetectParams params;
  params.k = k;
  params.fake_ids = fake_ids;
  const auto id_of = [](graph::Vertex x) { return static_cast<core::NodeId>(x) + 1; };

  std::vector<EdgeDetectState> states;
  states.reserve(g.num_vertices());
  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    states.emplace_back(params, id_of(x), id_of(u), id_of(v));
  }

  // outgoing[x] = bundle node x broadcast in the previous round.
  std::vector<std::vector<IdSeq>> outgoing(g.num_vertices());
  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    outgoing[x] = states[x].seed();
    if (verbose && !outgoing[x].empty()) {
      std::printf("  round 0: node %llu seeds %s\n",
                  static_cast<unsigned long long>(id_of(x)),
                  bundle_to_string(outgoing[x]).c_str());
    }
  }

  const unsigned half = k / 2;
  for (unsigned g_round = 1; g_round <= half; ++g_round) {
    std::vector<std::vector<IdSeq>> next(g.num_vertices());
    for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
      std::vector<IdSeq> received;
      for (const graph::Vertex nb : g.neighbors(x)) {
        received.insert(received.end(), outgoing[nb].begin(), outgoing[nb].end());
      }
      if (received.empty()) continue;
      next[x] = states[x].step(g_round, std::move(received));
      if (verbose && !next[x].empty()) {
        std::printf("  round %u: node %llu forwards %s\n", g_round,
                    static_cast<unsigned long long>(id_of(x)),
                    bundle_to_string(next[x]).c_str());
      }
    }
    outgoing = std::move(next);
  }

  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    if (states[x].rejected()) {
      std::printf("  => node %llu REJECTS; witness IDs:",
                  static_cast<unsigned long long>(id_of(x)));
      for (const auto id : states[x].witness_cycle_ids()) {
        std::printf(" %llu", static_cast<unsigned long long>(id));
      }
      std::printf("\n");
      return true;
    }
  }
  std::printf("  => all nodes accept\n");
  return false;
}

}  // namespace

int run(const decycle::util::Args& args) {
  args.reject_unknown();
  std::printf("=== Part 1: the C9 walkthrough of paper section 3.3 ===\n");
  std::printf("Cycle with IDs 1..9, checking edge {1, 9} for a C9.\n\n");
  const graph::Graph c9 = graph::cycle(9);

  std::printf("With Instruction 14 (fake IDs {-1..-(k-t)} added to I):\n");
  const bool with_fakes = trace_phase2(c9, 9, 0, 8, /*fake_ids=*/true, /*verbose=*/true);

  std::printf("\nWithout Instruction 14 — node 3 holds R = {(1 2)}, I = {1, 2}; no 6-element\n"
              "completion set exists, so X is empty and (1 2) is dropped, exactly as the\n"
              "paper explains:\n");
  const bool without_fakes = trace_phase2(c9, 9, 0, 8, /*fake_ids=*/false, /*verbose=*/true);

  std::printf("\n=== Part 2: Figure 1 — detecting a C5 through {u, v} ===\n");
  std::printf("u=1, v=2 adjacent to both x=4 and y=5; apex z=3 closes the C5.\n"
              "Both (u x) and (v x) survive the pruning, so z sees disjoint halves:\n\n");
  graph::GraphBuilder b;
  b.add_edge(0, 1);  // u-v
  b.add_edge(0, 3);  // u-x
  b.add_edge(1, 3);  // v-x
  b.add_edge(0, 4);  // u-y
  b.add_edge(1, 4);  // v-y
  b.add_edge(3, 2);  // x-z
  b.add_edge(4, 2);  // y-z
  const graph::Graph fig1 = b.build();
  const bool fig1_found = trace_phase2(fig1, 5, 0, 1, /*fake_ids=*/true, /*verbose=*/true);

  std::printf("\nsummary: C9 with fakes: %s | C9 without fakes: %s | Figure 1 C5: %s\n",
              with_fakes ? "detected" : "missed", without_fakes ? "detected" : "missed",
              fig1_found ? "detected" : "missed");
  return (with_fakes && !without_fakes && fig1_found) ? 0 : 1;
}

int main(int argc, char** argv) {
  return decycle::util::run_main("example_paper_walkthrough", argc, argv, run);
}
