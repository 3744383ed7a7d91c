/// \file m6_scale_micro.cpp
/// \brief Micro-benchmark M6 — million-node scale: streaming graph builds
/// and single-threaded delivery throughput.
///
/// Gates the scale path (pooled allocation, streaming CSR builds, arena
/// delivery) at production scale:
///
///   * build_* — constructing a circulant C_n(1..4) via the generic
///     sort-and-dedup path (Graph::from_edges) vs the streaming
///     lexicographic path (Graph::from_ordered_edges), with membership spot
///     checks on the streamed graph;
///   * delivery_* — dense broadcast rounds (every node sends on every port)
///     at n ∈ {10k, 100k, 1M, 4M} on one thread (a simulation runs on the
///     thread that calls it), totals cross-checked across repetitions.
///
/// Writes BENCH_scale.json (override with --out=PATH; bench_common.hpp).
/// --smoke shrinks to {10k, 50k} for CI. Exits 1 on any cross-check failure.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace decycle;
using congest::Simulator;

/// Broadcast-k-rounds program: every node ships one small message per port
/// per round until the horizon. Mirrors m2's ChattyAllPorts minus the inbox
/// fold, keeping the hot path delivery-bound.
class Broadcast final : public congest::NodeProgram {
 public:
  explicit Broadcast(std::uint64_t horizon) : horizon_(horizon) {}

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override {
    std::uint64_t acc = 0;
    for (const auto& env : inbox) {
      congest::MessageReader r(env.payload);
      acc ^= r.get_u64();
    }
    if (ctx.round() >= horizon_) return;
    congest::MessageWriter w;
    w.put_u64(ctx.my_id() ^ (acc & 1));
    ctx.send_all(w.finish());
  }

 private:
  std::uint64_t horizon_;
};

struct BuildRow {
  graph::Vertex n = 0;
  std::size_t edges = 0;
  double sorted_s = 0;     ///< Graph::from_edges (sort + dedup)
  double streaming_s = 0;  ///< Graph::from_ordered_edges
  std::size_t adjacency_entries = 0;

  [[nodiscard]] double speedup() const { return streaming_s > 0 ? sorted_s / streaming_s : 0.0; }
};

struct DeliveryRow {
  std::string name;
  graph::Vertex n = 0;
  unsigned degree = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  double seconds = 0;  ///< best of the repetitions
  double msgs_per_sec = 0;
};

}  // namespace

int run(const util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_scale.json");
  args.reject_unknown();
  harness::ClaimSet claims("m6_scale_micro");
  constexpr std::uint32_t kHalfDegree = 4;  // C_n(1..4): 8-regular

  const std::vector<graph::Vertex> sizes =
      smoke ? std::vector<graph::Vertex>{10'000, 50'000}
            : std::vector<graph::Vertex>{10'000, 100'000, 1'000'000, 4'000'000};

  // --- Build comparison: sorted generic path vs streaming path. ---
  std::vector<BuildRow> builds;
  for (const graph::Vertex n : sizes) {
    BuildRow row;
    row.n = n;
    {
      // The generic path receives the same edge stream but may not assume
      // its order — it pays the sort + dedup the streaming build skips.
      const graph::Graph ordered = graph::circulant(n, kHalfDegree);
      const std::vector<graph::Edge> edge_copy(ordered.edges().begin(), ordered.edges().end());
      const util::WallTimer timer;
      const graph::Graph sorted_build = graph::Graph::from_edges(n, edge_copy);
      row.sorted_s = timer.seconds();
      row.edges = sorted_build.num_edges();
    }
    {
      const util::WallTimer timer;
      const graph::Graph g = graph::circulant(n, kHalfDegree);
      row.streaming_s = timer.seconds();
      row.adjacency_entries = 2 * g.num_edges();
      const std::string at = " at n=" + std::to_string(n);
      claims.check("circulant edge count" + at, g.num_edges() == std::size_t{n} * kHalfDegree);
      claims.check("membership spot checks" + at,
                   g.has_edge(0, 1) && g.has_edge(0, n - 1) && !g.has_edge(0, n / 2));
    }
    builds.push_back(row);
    std::printf("build n=%-9u edges=%-9zu sorted=%7.3fs streaming=%7.3fs (%.2fx)  "
                "%zu adjacency entries\n",
                row.n, row.edges, row.sorted_s, row.streaming_s, row.speedup(),
                row.adjacency_entries);
  }

  // --- Delivery throughput. ---
  std::vector<DeliveryRow> deliveries;
  for (const graph::Vertex n : sizes) {
    // Constant per-size message budget: bigger graphs run fewer rounds.
    const std::uint64_t horizon = n >= 1'000'000 ? 2 : (n >= 100'000 ? 4 : 8);
    const int reps = smoke ? 1 : (n >= 1'000'000 ? 1 : 2);
    const graph::Graph g = graph::circulant(n, kHalfDegree);
    const graph::IdAssignment ids = graph::IdAssignment::identity(n);
    const auto factory = [horizon](graph::Vertex) { return std::make_unique<Broadcast>(horizon); };

    DeliveryRow row;
    row.name = "delivery_bcast_n" + std::to_string(n);
    row.n = n;
    row.degree = 2 * kHalfDegree;

    Simulator sim(g, ids, factory);
    (void)sim.run();  // warm arenas / pools, untimed
    for (int rep = 0; rep < reps; ++rep) {
      sim.reset(factory);
      const util::WallTimer timer;
      const congest::RunStats stats = sim.run();
      const double dt = timer.seconds();
      if (rep == 0 || dt < row.seconds) row.seconds = dt;
      if (rep == 0) {
        row.messages = stats.total_messages;
        row.rounds = stats.rounds_executed;
      }
      claims.check(row.name + ": repeated run agrees on totals",
                   stats.total_messages == row.messages && stats.rounds_executed == row.rounds);
    }
    row.msgs_per_sec = row.seconds > 0 ? static_cast<double>(row.messages) / row.seconds : 0;
    std::printf("%-24s %8.4fs  %12.3e msg/s\n", row.name.c_str(), row.seconds,
                row.msgs_per_sec);
    deliveries.push_back(row);
  }

  bench::BenchFile file("m6_scale_micro", smoke);
  file.rows("build", builds, [](lab::JsonWriter& w, const BuildRow& b) {
    w.field("n", b.n)
        .field("edges", b.edges)
        .field("sorted_build_s", b.sorted_s)
        .field("streaming_build_s", b.streaming_s)
        .field("build_speedup", b.speedup())
        .field("adjacency_entries", b.adjacency_entries);
  });
  file.rows("delivery", deliveries, [](lab::JsonWriter& w, const DeliveryRow& d) {
    w.field("name", d.name)
        .field("n", d.n)
        .field("degree", d.degree)
        .field("rounds", d.rounds)
        .field("messages", d.messages)
        .field("seconds", d.seconds)
        .field("msgs_per_sec", d.msgs_per_sec);
  });
  return file.write(out_path, claims);
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m6_scale_micro", argc, argv, run);
}
