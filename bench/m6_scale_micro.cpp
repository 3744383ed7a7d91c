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
/// Writes BENCH_scale.json (override with --out=PATH) with the machine it
/// ran on (hardware threads, build type, git revision). --smoke shrinks to
/// {10k, 50k} for CI. Exits 1 on any cross-check failure.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/cli.hpp"

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

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct BuildRow {
  graph::Vertex n = 0;
  std::size_t edges = 0;
  double sorted_s = 0;     ///< Graph::from_edges (sort + dedup)
  double streaming_s = 0;  ///< Graph::from_ordered_edges
  std::size_t adjacency_entries = 0;
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

bool check(bool okay, const char* what) {
  if (!okay) std::fprintf(stderr, "FAILED: %s\n", what);
  return okay;
}

}  // namespace

int run(const util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_scale.json");
  args.reject_unknown();
  bool ok = true;
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
      const auto t0 = std::chrono::steady_clock::now();
      const graph::Graph sorted_build = graph::Graph::from_edges(n, edge_copy);
      row.sorted_s = seconds_since(t0);
      row.edges = sorted_build.num_edges();
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      const graph::Graph g = graph::circulant(n, kHalfDegree);
      row.streaming_s = seconds_since(t0);
      row.adjacency_entries = 2 * g.num_edges();
      ok &= check(g.num_edges() == std::size_t{n} * kHalfDegree, "circulant edge count");
      ok &= check(g.has_edge(0, 1) && g.has_edge(0, n - 1) && !g.has_edge(0, n / 2),
                  "membership spot checks");
    }
    builds.push_back(row);
    std::printf("build n=%-9u edges=%-9zu sorted=%7.3fs streaming=%7.3fs (%.2fx)  "
                "%zu adjacency entries\n",
                row.n, row.edges, row.sorted_s, row.streaming_s,
                row.streaming_s > 0 ? row.sorted_s / row.streaming_s : 0.0,
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
      const auto t0 = std::chrono::steady_clock::now();
      const congest::RunStats stats = sim.run();
      const double dt = seconds_since(t0);
      if (rep == 0 || dt < row.seconds) row.seconds = dt;
      if (rep == 0) {
        row.messages = stats.total_messages;
        row.rounds = stats.rounds_executed;
      }
      ok &= check(stats.total_messages == row.messages && stats.rounds_executed == row.rounds,
                  "repeated run disagrees on totals");
    }
    row.msgs_per_sec = row.seconds > 0 ? static_cast<double>(row.messages) / row.seconds : 0;
    std::printf("%-24s %8.4fs  %12.3e msg/s\n", row.name.c_str(), row.seconds,
                row.msgs_per_sec);
    deliveries.push_back(row);
  }

  // --- JSON. ---
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"m6_scale_micro\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"hardware_threads\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"git_sha\": \"%s\",\n",
                 std::thread::hardware_concurrency(), DECYCLE_BENCH_BUILD_TYPE,
                 DECYCLE_BENCH_GIT_SHA);
    std::fprintf(f, "  \"build\": [\n");
    for (std::size_t i = 0; i < builds.size(); ++i) {
      const BuildRow& b = builds[i];
      std::fprintf(f,
                   "    {\"n\": %u, \"edges\": %zu, \"sorted_build_s\": %.6f, "
                   "\"streaming_build_s\": %.6f, \"build_speedup\": %.3f, "
                   "\"adjacency_entries\": %zu}%s\n",
                   b.n, b.edges, b.sorted_s, b.streaming_s,
                   b.streaming_s > 0 ? b.sorted_s / b.streaming_s : 0.0, b.adjacency_entries,
                   i + 1 == builds.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"delivery\": [\n");
    for (std::size_t i = 0; i < deliveries.size(); ++i) {
      const DeliveryRow& d = deliveries[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"n\": %u, \"degree\": %u, \"rounds\": %llu, "
                   "\"messages\": %llu, \"seconds\": %.6f, \"msgs_per_sec\": %.1f}%s\n",
                   d.name.c_str(), d.n, d.degree, static_cast<unsigned long long>(d.rounds),
                   static_cast<unsigned long long>(d.messages), d.seconds, d.msgs_per_sec,
                   i + 1 == deliveries.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAILED: cannot open %s for writing\n", out_path.c_str());
    ok = false;
  }

  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m6_scale_micro", argc, argv, run);
}
