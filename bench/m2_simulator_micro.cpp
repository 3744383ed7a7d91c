/// \file m2_simulator_micro.cpp
/// \brief Micro-benchmark M2 — CONGEST simulator message-path throughput.
///
/// Measures delivered-message throughput of Simulator::run (the arena
/// delivery path) against Simulator::run_reference, the legacy loop it
/// replaced (binary-search port lookup, per-inbox sort, allocating
/// containers), on three traffic shapes:
///
///   * delivery_dense10k_d24 — the acceptance workload: a 10k-node
///     24-regular circulant graph where every node broadcasts every round,
///     i.e. dense all-to-all-neighbors traffic (~240k messages/round);
///   * floodmax_grid96   — a real algorithm (flood-max leader election) on a
///     96x96 grid, mixing computation with delivery;
///   * sparse_ring_100k  — the event-driven sweet spot: a 100k-node ring
///     where only a relay front is ever active, plus timer-wheel wake-ups.
///
/// Every run is single-threaded: a simulation runs on the thread that calls
/// it. Writes machine-readable before/after numbers to BENCH_simulator.json
/// (override with --out=PATH; bench_common.hpp), and asserts that
/// steady-state arena rounds perform zero heap allocations (the process
/// exits 1 if either the zero-allocation invariant or cross-mode stats
/// equality is violated). --smoke shrinks every instance for CI.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/simulator.hpp"
#include "graph/generators.hpp"
#include "support/alloc_probe.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace decycle;
using congest::Simulator;

/// Which loop measure() times: Simulator::run, or the run_reference baseline.
constexpr bool kRun = false;
constexpr bool kReference = true;

/// Every node sends its ID on every port each round for a fixed horizon;
/// payloads are a couple of varints, i.e. legal O(log n)-bit CONGEST
/// messages. No per-node state, so the simulator owns every allocation.
class ChattyAllPorts final : public congest::NodeProgram {
 public:
  explicit ChattyAllPorts(std::uint64_t horizon) : horizon_(horizon) {}

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override {
    std::uint64_t acc = 0;
    for (const auto& env : inbox) {
      congest::MessageReader r(env.payload);
      while (!r.at_end()) acc ^= r.get_u64();
    }
    if (ctx.round() >= horizon_) return;
    congest::MessageWriter w;
    w.put_u64(ctx.my_id()).put_u64(acc & 0xff);
    ctx.send_all(w.finish());
  }

 private:
  std::uint64_t horizon_;
};

/// Flood-max leader election: every node floods the largest ID it has seen
/// until nothing improves — a real algorithm mixing computation with
/// delivery, active wherever the maximum is still spreading.
class FloodMax final : public congest::NodeProgram {
 public:
  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override {
    bool improved = ctx.round() == 0;
    if (improved) leader_ = ctx.my_id();
    for (const auto& env : inbox) {
      congest::MessageReader r(env.payload);
      const graph::NodeId candidate = r.get_u64();
      if (candidate > leader_) {
        leader_ = candidate;
        improved = true;
      }
    }
    if (!improved) return;
    congest::MessageWriter w;
    w.put_u64(leader_);
    ctx.send_all(w.finish());
  }

 private:
  graph::NodeId leader_ = 0;
};

/// Relay around a huge ring: only the token front is active, and every hop
/// also schedules a near wake-up, exercising the timer wheel.
class RingRelay final : public congest::NodeProgram {
 public:
  explicit RingRelay(bool starter, std::uint64_t horizon)
      : starter_(starter), horizon_(horizon) {}

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override {
    if (ctx.round() >= horizon_) return;
    if (ctx.round() == 0 && starter_) {
      congest::MessageWriter w;
      w.put_u64(1);
      ctx.send(1, w.finish());
      return;
    }
    for (const auto& env : inbox) {
      congest::MessageReader r(env.payload);
      const std::uint64_t hops = r.get_u64();
      congest::MessageWriter w;
      w.put_u64(hops + 1);
      ctx.send(env.port == 0 ? 1u : 0u, w.finish());  // keep moving away from the sender
      ctx.request_wakeup_at(ctx.round() + 2);         // wheel traffic alongside mail
    }
  }

 private:
  bool starter_;
  std::uint64_t horizon_;
};

struct Measurement {
  double seconds = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;

  [[nodiscard]] double msgs_per_sec() const { return seconds > 0 ? messages / seconds : 0; }
};

struct Scenario {
  std::string name;
  graph::Vertex n = 0;
  std::size_t edges = 0;
  Measurement legacy;
  Measurement arena;

  [[nodiscard]] double speedup() const {
    return legacy.seconds > 0 && arena.seconds > 0 ? legacy.seconds / arena.seconds : 0;
  }
};

using ProgramFactory = Simulator::ProgramFactory;

/// Best-of-\p reps wall time for a full run. When the program is stateless
/// across runs (\p rerunnable), one simulator is reused with an untimed
/// warm-up run, so the number is steady-state delivery throughput; stateful
/// programs get a fresh simulator per rep (construction untimed).
Measurement measure(const graph::Graph& g, const graph::IdAssignment& ids,
                    const ProgramFactory& factory, bool reference, int reps, bool rerunnable) {
  Measurement best;
  std::unique_ptr<Simulator> shared;
  const auto run = [&](Simulator& sim) {
    return reference ? sim.run_reference({}) : sim.run();
  };
  if (rerunnable) {
    shared = std::make_unique<Simulator>(g, ids, factory);
    (void)run(*shared);  // warm every reusable buffer, untimed
  }
  for (int rep = 0; rep < reps; ++rep) {
    std::unique_ptr<Simulator> fresh;
    if (!rerunnable) fresh = std::make_unique<Simulator>(g, ids, factory);
    Simulator& sim = rerunnable ? *shared : *fresh;
    const util::WallTimer timer;
    const congest::RunStats stats = run(sim);
    const double dt = timer.seconds();
    if (rep == 0 || dt < best.seconds) {
      best.seconds = dt;
      best.messages = stats.total_messages;
      best.rounds = stats.rounds_executed;
    }
  }
  return best;
}

/// One side of a scenario row: "before" (legacy) or "after" (arena).
void write_side(lab::JsonWriter& w, const char* mode, const Measurement& m) {
  w.begin_object()
      .field("mode", mode)
      .field("seconds", m.seconds)
      .field("messages", m.messages)
      .field("rounds", m.rounds)
      .field("msgs_per_sec", m.msgs_per_sec())
      .end_object();
}

}  // namespace

int run(const util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_simulator.json");
  args.reject_unknown();
  const int reps = smoke ? 1 : 3;
  harness::ClaimSet claims("m2_simulator_micro");

  std::vector<Scenario> scenarios;

  // --- Scenario 1: dense delivery on a >=10k-node high-degree instance. ---
  {
    const graph::Vertex n = smoke ? 2000 : 10000;
    const std::uint64_t horizon = smoke ? 6 : 16;
    const graph::Graph g = graph::circulant(n, 12);  // 24-regular
    util::Rng id_rng(2);
    const graph::IdAssignment ids = graph::IdAssignment::shuffled(n, id_rng);
    const auto factory = [horizon](graph::Vertex) {
      return std::make_unique<ChattyAllPorts>(horizon);
    };
    Scenario s;
    s.name = smoke ? "delivery_dense2k_d24" : "delivery_dense10k_d24";
    s.n = n;
    s.edges = g.num_edges();
    s.legacy = measure(g, ids, factory, kReference, reps, /*rerunnable=*/true);
    s.arena = measure(g, ids, factory, kRun, reps, /*rerunnable=*/true);
    claims.check("dense: legacy and arena agree on totals",
                 s.legacy.messages == s.arena.messages && s.legacy.rounds == s.arena.rounds);
    scenarios.push_back(s);
  }

  // --- Scenario 2: a real algorithm (flood-max leader election). ---
  {
    const graph::Vertex side = smoke ? 32 : 96;
    const graph::Graph g = graph::grid(side, side);
    util::Rng id_rng(3);
    const graph::IdAssignment ids = graph::IdAssignment::shuffled(g.num_vertices(), id_rng);
    const auto factory = [](graph::Vertex) { return std::make_unique<FloodMax>(); };
    Scenario s;
    s.name = smoke ? "floodmax_grid32" : "floodmax_grid96";
    s.n = g.num_vertices();
    s.edges = g.num_edges();
    s.legacy = measure(g, ids, factory, kReference, reps, /*rerunnable=*/false);
    s.arena = measure(g, ids, factory, kRun, reps, /*rerunnable=*/false);
    claims.check("floodmax: legacy and arena agree on totals",
                 s.legacy.messages == s.arena.messages && s.legacy.rounds == s.arena.rounds);
    scenarios.push_back(s);
  }

  // --- Scenario 3: event-driven sparse traffic + timer wheel. ---
  {
    const graph::Vertex n = smoke ? 20000 : 100000;
    const std::uint64_t horizon = smoke ? 4000 : 20000;
    const graph::Graph g = graph::cycle(n);
    const graph::IdAssignment ids = graph::IdAssignment::identity(n);
    const auto factory = [horizon](graph::Vertex v) {
      return std::make_unique<RingRelay>(v == 0, horizon);
    };
    Scenario s;
    s.name = smoke ? "sparse_ring_20k" : "sparse_ring_100k";
    s.n = n;
    s.edges = g.num_edges();
    s.legacy = measure(g, ids, factory, kReference, reps, /*rerunnable=*/true);
    s.arena = measure(g, ids, factory, kRun, reps, /*rerunnable=*/true);
    claims.check("ring: legacy and arena agree on totals",
                 s.legacy.messages == s.arena.messages && s.legacy.rounds == s.arena.rounds);
    scenarios.push_back(s);
  }

  // --- Zero-allocation assertion: after a warm-up run, a full steady-state
  // arena run must not allocate at all. ---
  std::uint64_t steady_allocs = ~std::uint64_t{0};
  std::uint64_t steady_rounds = 0;
  {
    const graph::Vertex n = smoke ? 1000 : 4000;
    const graph::Graph g = graph::circulant(n, 8);  // 16-regular
    const graph::IdAssignment ids = graph::IdAssignment::identity(n);
    const std::uint64_t horizon = 12;
    Simulator sim(g, ids, [horizon](graph::Vertex) {
      return std::make_unique<ChattyAllPorts>(horizon);
    });
    (void)sim.run();  // warm every reusable buffer
    const std::uint64_t before = decycle::testsupport::allocation_count();
    const congest::RunStats stats = sim.run();
    steady_allocs = decycle::testsupport::allocation_count() - before;
    steady_rounds = stats.rounds_executed;
    claims.check("steady-state arena run performs no heap allocation", steady_allocs == 0);
  }

  // --- Report. ---
  std::printf("%-22s %12s %12s %14s %14s %9s\n", "scenario", "legacy s", "arena s",
              "legacy msg/s", "arena msg/s", "speedup");
  for (const Scenario& s : scenarios) {
    std::printf("%-22s %12.4f %12.4f %14.3e %14.3e %8.2fx\n", s.name.c_str(),
                s.legacy.seconds, s.arena.seconds, s.legacy.msgs_per_sec(),
                s.arena.msgs_per_sec(), s.speedup());
  }
  std::printf("zero-alloc steady state: %llu allocations over %llu rounds\n",
              static_cast<unsigned long long>(steady_allocs),
              static_cast<unsigned long long>(steady_rounds));

  bench::BenchFile file("m2_simulator_micro", smoke);
  file.field("baseline", "legacy delivery (pre-arena loop)");
  file.rows("scenarios", scenarios, [](lab::JsonWriter& w, const Scenario& s) {
    w.field("name", s.name).field("n", s.n).field("edges", s.edges);
    w.key("before");
    write_side(w, "legacy", s.legacy);
    w.key("after");
    write_side(w, "arena", s.arena);
    w.field("speedup", s.speedup());
  });
  file.object("zero_alloc", [&](lab::JsonWriter& w) {
    w.field("verified", steady_allocs == 0)
        .field("steady_rounds", steady_rounds)
        .field("allocations", steady_allocs);
  });
  return file.write(out_path, claims);
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m2_simulator_micro", argc, argv, run);
}
