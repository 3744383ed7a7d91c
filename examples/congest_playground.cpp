/// \file congest_playground.cpp
/// \brief The CONGEST substrate on its own: BFS layering, flood-max leader
/// election, and the bandwidth accounting the experiments rely on.
///
/// Useful as a template for writing new NodeProgram algorithms against the
/// simulator (send/receive per round, wake-ups, per-round statistics).
///
///   ./congest_playground [--rows=8] [--cols=8] [--seed=2]
#include <cstdio>
#include <iostream>

#include "congest/algorithms/bfs.hpp"
#include "congest/algorithms/flood_max.hpp"
#include "congest/simulator.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int run(const decycle::util::Args& args) {
  using namespace decycle;
  using congest::Simulator;
  const auto rows = args.get<graph::Vertex>("rows", 8);
  const auto cols = args.get<graph::Vertex>("cols", 8);
  const std::uint64_t seed = args.get<std::uint64_t>("seed", 2);
  args.reject_unknown();

  const graph::Graph g = graph::grid(rows, cols);
  util::Rng rng(seed);
  const graph::IdAssignment ids = graph::IdAssignment::random_quadratic(g.num_vertices(), rng);
  std::printf("grid %ux%u: n=%u m=%zu, IDs in [0, n^2)\n", rows, cols, g.num_vertices(),
              g.num_edges());

  // --- Distributed BFS from the corner. ---
  Simulator bfs_sim(g, ids,
                    [](graph::Vertex v) { return std::make_unique<congest::BfsProgram>(v == 0); });
  Simulator::Options opts;
  opts.record_rounds = true;
  const auto bfs_stats = bfs_sim.run(opts);
  const auto truth = graph::bfs_distances(g, 0);
  std::size_t mismatches = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto& prog = static_cast<const congest::BfsProgram&>(bfs_sim.program(v));
    if (!prog.distance().has_value() || *prog.distance() != truth[v]) ++mismatches;
  }
  std::printf("BFS: %llu rounds, %zu messages, %zu distance mismatches vs centralized BFS\n",
              static_cast<unsigned long long>(bfs_stats.rounds_executed), bfs_stats.total_messages,
              mismatches);

  // --- Flood-max leader election. ---
  Simulator lead_sim(g, ids,
                     [](graph::Vertex) { return std::make_unique<congest::FloodMaxProgram>(); });
  const auto lead_stats = lead_sim.run(opts);
  graph::NodeId expected = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) expected = std::max(expected, ids.id_of(v));
  std::size_t agree = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto& prog = static_cast<const congest::FloodMaxProgram&>(lead_sim.program(v));
    if (prog.leader() == expected) ++agree;
  }
  std::printf("flood-max: leader %llu agreed by %zu/%u nodes in %llu rounds\n",
              static_cast<unsigned long long>(expected), agree, g.num_vertices(),
              static_cast<unsigned long long>(lead_stats.rounds_executed));

  // --- Bandwidth accounting: the metric behind "normalized rounds". ---
  util::Table table({"round", "active", "messages", "bits", "max link bits"});
  for (std::size_t i = 0; i < std::min<std::size_t>(6, lead_stats.per_round.size()); ++i) {
    const auto& r = lead_stats.per_round[i];
    table.row()
        .cell(r.round)
        .cell(static_cast<std::uint64_t>(r.active_nodes))
        .cell(static_cast<std::uint64_t>(r.messages))
        .cell(r.bits)
        .cell(r.max_link_bits);
  }
  table.print(std::cout, "flood-max per-round profile (first 6 rounds)");
  const std::uint64_t bandwidth = 32;  // a strict B-bit CONGEST link
  std::printf("normalized rounds at B=%llu bits: %llu (logical: %llu)\n",
              static_cast<unsigned long long>(bandwidth),
              static_cast<unsigned long long>(lead_stats.normalized_rounds(bandwidth)),
              static_cast<unsigned long long>(lead_stats.rounds_executed));
  return mismatches == 0 && agree == g.num_vertices() ? 0 : 1;
}

int main(int argc, char** argv) {
  return decycle::util::run_main("example_congest_playground", argc, argv, run);
}
