#include "congest/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "core/tester.hpp"
#include "core/threshold/threshold_tester.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "support/alloc_probe.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::congest {
namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

/// Echo program: round 0 sends own ID everywhere; afterwards records what it
/// hears and stays silent.
class EchoProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.round() == 0) {
      MessageWriter w;
      w.put_u64(ctx.my_id());
      ctx.send_all(w.finish());
      return;
    }
    for (const Envelope& env : inbox) {
      MessageReader r(env.payload);
      heard_.push_back(r.get_u64());
      ports_.push_back(env.port);
    }
  }
  std::vector<NodeId> heard_;
  std::vector<std::uint32_t> ports_;
};

TEST(Simulator, DeliversToAllNeighborsOnce) {
  const Graph g = graph::cycle(5);
  const IdAssignment ids = IdAssignment::identity(5);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<EchoProgram>(); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.rounds_executed, 2u);  // broadcast round + hearing round
  EXPECT_EQ(stats.total_messages, 10u);  // one per directed edge
  for (Vertex v = 0; v < 5; ++v) {
    const auto& prog = static_cast<const EchoProgram&>(sim.program(v));
    ASSERT_EQ(prog.heard_.size(), 2u);
    // Inbox sorted by port; ports map to sorted neighbor vertices.
    EXPECT_EQ(prog.ports_[0], 0u);
    EXPECT_EQ(prog.ports_[1], 1u);
    const auto nb = g.neighbors(v);
    EXPECT_EQ(prog.heard_[0], nb[0]);
    EXPECT_EQ(prog.heard_[1], nb[1]);
  }
}

/// Forwards a token along a path: vertex 0 starts, each node forwards to the
/// next higher port.
class RelayProgram final : public NodeProgram {
 public:
  explicit RelayProgram(bool starter) : starter_(starter) {}
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.round() == 0 && starter_) {
      MessageWriter w;
      w.put_u64(1);
      ctx.send(static_cast<std::uint32_t>(ctx.degree() - 1), w.finish());
      return;
    }
    for (const Envelope& env : inbox) {
      MessageReader r(env.payload);
      const std::uint64_t hops = r.get_u64();
      received_at_ = ctx.round();
      hops_ = hops;
      if (env.port + 1 < ctx.degree()) {  // forward "rightwards" along the path
        MessageWriter w;
        w.put_u64(hops + 1);
        ctx.send(static_cast<std::uint32_t>(ctx.degree() - 1), w.finish());
      }
    }
  }
  bool starter_;
  std::uint64_t received_at_ = 0;
  std::uint64_t hops_ = 0;
};

TEST(Simulator, EventDrivenRelayTiming) {
  const Graph g = graph::path(6);
  const IdAssignment ids = IdAssignment::identity(6);
  Simulator sim(g, ids, [](Vertex v) { return std::make_unique<RelayProgram>(v == 0); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  for (Vertex v = 1; v < 6; ++v) {
    const auto& prog = static_cast<const RelayProgram&>(sim.program(v));
    EXPECT_EQ(prog.received_at_, v) << "token reaches vertex v at round v";
    EXPECT_EQ(prog.hops_, v);
  }
  // Active sets shrink to the relay front: never more than n active after
  // round 0.
  EXPECT_EQ(stats.max_active_nodes, 6u);
}

/// Flood-max leader election: every node floods the largest ID it has
/// seen, and is stepped again only when a neighbor's message arrives.
class FloodMaxProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    bool improved = ctx.round() == 0;
    if (improved) leader_ = ctx.my_id();
    for (const Envelope& env : inbox) {
      MessageReader r(env.payload);
      const NodeId candidate = r.get_u64();
      if (candidate > leader_) {
        leader_ = candidate;
        improved = true;
      }
    }
    if (!improved) return;
    MessageWriter w;
    w.put_u64(leader_);
    ctx.send_all(w.finish());
  }
  NodeId leader_ = 0;
};

/// Runs flood-max to quiescence and checks that every node learned the
/// largest assigned ID: my_id() must report the assignment, shuffled or
/// sparse, not the vertex index.
void expect_leader_is_max(const Graph& g, const IdAssignment& ids) {
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<FloodMaxProgram>(); });
  EXPECT_TRUE(sim.run().halted);
  NodeId max_id = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) max_id = std::max(max_id, ids.id_of(v));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(static_cast<const FloodMaxProgram&>(sim.program(v)).leader_, max_id) << v;
  }
}

TEST(FloodMax, ElectsMaxOnCycle) {
  expect_leader_is_max(graph::cycle(9), IdAssignment::identity(9));
}

TEST(FloodMax, ElectsMaxWithShuffledIds) {
  util::Rng rng(4);
  const Graph g = graph::grid(5, 5);
  expect_leader_is_max(g, IdAssignment::shuffled(g.num_vertices(), rng));
}

TEST(FloodMax, ElectsMaxWithSparseRandomIds) {
  util::Rng rng(5);
  const Graph g = graph::random_connected(40, 60, rng);
  expect_leader_is_max(g, IdAssignment::random_quadratic(g.num_vertices(), rng));
}

/// Event-driven relay timing with send_all: the maximum travels one hop per
/// round from one end of a path, nodes that learn nothing new stay silent,
/// and the run halts exactly when the front's last echo has been heard.
TEST(FloodMax, ConvergesWithinDiameterPlusOneRounds) {
  const Graph g = graph::path(20);  // worst case: max at one end
  std::vector<NodeId> ids_vec(20);
  for (Vertex v = 0; v < 20; ++v) ids_vec[v] = 19 - v;  // max ID at vertex 0
  const IdAssignment ids = IdAssignment::from_ids(ids_vec);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<FloodMaxProgram>(); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.rounds_executed, 21u);  // diameter 19, plus round 0 and the last hearing
  EXPECT_EQ(static_cast<const FloodMaxProgram&>(sim.program(19)).leader_, 19u);
}

class WakeupProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope>) override {
    rounds_seen_.push_back(ctx.round());
    if (ctx.round() == 0) ctx.request_wakeup_at(5);
  }
  std::vector<std::uint64_t> rounds_seen_;
};

TEST(Simulator, WakeupSkipsIdleRounds) {
  const Graph g = graph::path(2);
  const IdAssignment ids = IdAssignment::identity(2);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<WakeupProgram>(); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.rounds_executed, 2u);  // rounds 1-4 are fast-forwarded
  const auto& prog = static_cast<const WakeupProgram&>(sim.program(0));
  ASSERT_EQ(prog.rounds_seen_.size(), 2u);
  EXPECT_EQ(prog.rounds_seen_[1], 5u);
}

class DoubleSendProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope>) override {
    if (ctx.round() > 0) return;
    MessageWriter w;
    w.put_u64(1);
    ctx.send(0, w.finish());
    MessageWriter w2;
    w2.put_u64(2);
    ctx.send(0, w2.finish());  // CONGEST violation
  }
};

TEST(Simulator, RejectsTwoMessagesPerLinkPerRound) {
  const Graph g = graph::path(2);
  const IdAssignment ids = IdAssignment::identity(2);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<DoubleSendProgram>(); });
  EXPECT_THROW((void)sim.run(), util::CheckError);
}

class PastWakeupProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope>) override {
    ctx.request_wakeup_at(ctx.round());  // not in the future
  }
};

TEST(Simulator, RejectsPastWakeup) {
  const Graph g = graph::path(2);
  const IdAssignment ids = IdAssignment::identity(2);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<PastWakeupProgram>(); });
  EXPECT_THROW((void)sim.run(), util::CheckError);
}

class ChattyProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope>) override {
    MessageWriter w;
    w.put_u64(ctx.round());
    ctx.send_all(w.finish());
    ctx.request_wakeup_at(ctx.round() + 1);  // run forever
  }
};

TEST(Simulator, RoundCapStopsRunaways) {
  const Graph g = graph::cycle(4);
  const IdAssignment ids = IdAssignment::identity(4);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<ChattyProgram>(); });
  Simulator::Options opt;
  opt.max_rounds = 10;
  const RunStats stats = sim.run(opt);
  EXPECT_FALSE(stats.halted);
  EXPECT_LE(stats.rounds_executed, 12u);
}

TEST(Simulator, StatsBitsAndLinkMaxima) {
  const Graph g = graph::star(4);  // hub 0
  const IdAssignment ids = IdAssignment::identity(4);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<EchoProgram>(); });
  Simulator::Options opt;
  opt.record_rounds = true;
  const RunStats stats = sim.run(opt);
  EXPECT_EQ(stats.total_messages, 6u);  // hub sends 3, leaves send 1 each
  EXPECT_GT(stats.total_bits, 0u);
  ASSERT_FALSE(stats.per_round.empty());
  std::uint64_t sum = 0;
  for (const auto& r : stats.per_round) sum += r.bits;
  EXPECT_EQ(sum, stats.total_bits);
  EXPECT_GE(stats.max_link_bits, 8u);
  EXPECT_EQ(stats.normalized_rounds(0), stats.rounds_executed);
  EXPECT_GE(stats.normalized_rounds(8), stats.rounds_executed);
}

/// Multi-round gossip that exercises every delivery feature at once: port-
/// dependent sends, silent rounds, timer-wheel wake-ups (near and far), and
/// a full inbox transcript for bit-identity checks.
class GossipProgram final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    transcript_.push_back(0xf00d0000u + ctx.round());
    for (const Envelope& env : inbox) {
      transcript_.push_back(env.port);
      MessageReader r(env.payload);
      while (!r.at_end()) transcript_.push_back(r.get_u64());
    }
    if (ctx.round() >= kLastRound) return;
    for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
      if ((ctx.round() + ctx.vertex() + p) % 3 == 0) continue;  // stay silent on some links
      MessageWriter w;
      w.put_u64(ctx.my_id()).put_u64(ctx.round()).put_u64(p);
      ctx.send(p, w.finish());
    }
    if (ctx.round() % 4 == 0) ctx.request_wakeup_at(ctx.round() + 3);
    if (ctx.vertex() % 7 == 0 && ctx.round() == 0) {
      ctx.request_wakeup_at(kLastRound + 80);  // far target: exercises the heap
    }
  }

  static constexpr std::uint64_t kLastRound = 12;
  std::vector<std::uint64_t> transcript_;
};

struct RunOutcome {
  RunStats stats;
  std::vector<std::vector<std::uint64_t>> transcripts;
};

bool same_round_stats(const RoundStats& a, const RoundStats& b) {
  return a.round == b.round && a.active_nodes == b.active_nodes && a.messages == b.messages &&
         a.bits == b.bits && a.max_link_bits == b.max_link_bits;
}

void expect_same_stats(const RunStats& a, const RunStats& b, const std::string& label) {
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << label;
  EXPECT_EQ(a.total_messages, b.total_messages) << label;
  EXPECT_EQ(a.total_bits, b.total_bits) << label;
  EXPECT_EQ(a.max_link_bits, b.max_link_bits) << label;
  EXPECT_EQ(a.max_active_nodes, b.max_active_nodes) << label;
  EXPECT_EQ(a.dropped_messages, b.dropped_messages) << label;
  EXPECT_EQ(a.halted, b.halted) << label;
  ASSERT_EQ(a.per_round.size(), b.per_round.size()) << label;
  for (std::size_t i = 0; i < a.per_round.size(); ++i) {
    EXPECT_TRUE(same_round_stats(a.per_round[i], b.per_round[i])) << label << " round " << i;
  }
}

void expect_identical(const RunOutcome& a, const RunOutcome& b, const std::string& label) {
  expect_same_stats(a.stats, b.stats, label);
  EXPECT_EQ(a.transcripts, b.transcripts) << label;
}

/// Which loop a run goes through: Simulator::run, or the run_reference
/// oracle.
constexpr bool kRun = false;
constexpr bool kReference = true;

/// Run options with per-round records on and (optionally) a deterministic
/// ~20% drop adversary.
Simulator::Options test_options(const Graph& g, bool with_drops) {
  Simulator::Options opt;
  opt.record_rounds = true;
  if (with_drops) {
    const Vertex n = g.num_vertices();
    opt.drop = [n](std::uint64_t round, Vertex from, Vertex to) {
      return util::splitmix64(round * n + from * 31 + to) % 5 == 0;
    };
  }
  return opt;
}

RunOutcome run_gossip(const Graph& g, const IdAssignment& ids, bool reference,
                      bool with_drops) {
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<GossipProgram>(); });
  const Simulator::Options opt = test_options(g, with_drops);
  RunOutcome out;
  out.stats = reference ? sim.run_reference(opt) : sim.run(opt);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    out.transcripts.push_back(static_cast<const GossipProgram&>(sim.program(v)).transcript_);
  }
  return out;
}

/// The simulator contract (DESIGN.md §3.2), property-tested: run() and the
/// run_reference() oracle give identical RunStats (including per-round
/// records) and bit-identical inbox transcripts, with and without the
/// drop-filter adversary.
TEST(Simulator, DeterminismAcrossThreadCountsAndAdversary) {
  util::Rng rng(7);
  const Graph graphs[] = {graph::grid(9, 9), graph::wheel(40),
                          graph::random_regular(60, 6, rng)};
  for (std::size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& g = graphs[gi];
    util::Rng id_rng(13 + gi);
    const IdAssignment ids = IdAssignment::shuffled(g.num_vertices(), id_rng);
    for (const bool drops : {false, true}) {
      const std::string label =
          "graph " + std::to_string(gi) + (drops ? " with drops" : " no drops");
      const RunOutcome oracle = run_gossip(g, ids, kReference, drops);
      const RunOutcome serial = run_gossip(g, ids, kRun, drops);
      expect_identical(serial, oracle, label + ": run vs reference oracle");
    }
  }
}

/// One detector-program run: the stats plus each node's reject flag and
/// witness IDs.
struct DetectorRun {
  RunStats stats;
  std::vector<std::pair<bool, std::vector<NodeId>>> nodes;
};

template <typename Program>
DetectorRun run_programs(Simulator& sim, const Simulator::ProgramFactory& factory,
                         bool reference, bool with_drops) {
  sim.reset(factory);
  const Simulator::Options opt = test_options(sim.graph(), with_drops);
  DetectorRun out;
  out.stats = reference ? sim.run_reference(opt) : sim.run(opt);
  sim.for_each_program<Program>([&](Vertex, const Program& prog) {
    out.nodes.emplace_back(prog.rejected(), prog.witness_ids());
  });
  return out;
}

template <typename Program>
void expect_loops_agree(Simulator& sim, const Simulator::ProgramFactory& factory,
                        const std::string& name) {
  for (const bool drops : {false, true}) {
    const std::string label = name + (drops ? " with drops" : " no drops");
    const DetectorRun oracle = run_programs<Program>(sim, factory, kReference, drops);
    if (!drops) {
      // The planted instance must make the comparison cover witness traffic.
      EXPECT_TRUE(std::any_of(oracle.nodes.begin(), oracle.nodes.end(),
                              [](const auto& node) { return node.first; }))
          << label << ": no node rejected";
    }
    // The reference arm re-runs the oracle on the reused simulator.
    for (const bool reference : {kRun, kReference}) {
      const std::string run_label = label + (reference ? ", reference" : ", run");
      const DetectorRun got = run_programs<Program>(sim, factory, reference, drops);
      expect_same_stats(got.stats, oracle.stats, run_label);
      EXPECT_EQ(got.nodes, oracle.nodes) << run_label;
    }
  }
}

/// The reference oracle on real detector traffic, not just gossip: the
/// tester's prioritized Phase-2 bundles and the threshold family's merged
/// per-link bundles agree between run() and run_reference(), with and
/// without drops — RunStats, every node's reject flag and its witness IDs.
TEST(Simulator, ReferenceLoopAgreesOnDetectorTraffic) {
  util::Rng rng(5);
  graph::PlantedOptions popt;
  popt.k = 5;
  popt.num_cycles = 6;
  popt.padding_leaves = 20;
  const graph::FarInstance inst = graph::planted_cycles_instance(popt, rng);
  const Graph& g = inst.graph;
  util::Rng id_rng(9);
  const IdAssignment ids = IdAssignment::shuffled(g.num_vertices(), id_rng);
  const std::uint64_t n = g.num_vertices();
  const core::DetectParams params{.k = 5};
  Simulator sim(g, ids);

  expect_loops_agree<core::TesterProgram>(
      sim,
      [&](Vertex v) {
        return std::make_unique<core::TesterProgram>(params, /*repetitions=*/4, /*seed=*/17, n,
                                                     ids.id_of(v));
      },
      "tester");
  expect_loops_agree<core::threshold::ThresholdProgram>(
      sim,
      [&](Vertex v) {
        return std::make_unique<core::threshold::ThresholdProgram>(
            params, core::threshold::BudgetSchedule::constant(4), /*max_tracked=*/2,
            /*sweeps=*/2, /*seed=*/17, n, ids.id_of(v));
      },
      "threshold");
}

/// Messages that fit the inline buffer (every legal CONGEST payload) must
/// round-trip through the delivery path without the payload ever moving to
/// the heap; oversized ones must still round-trip correctly.
TEST(Simulator, ArenaHandlesOversizedPayloads) {
  class BigSender final : public NodeProgram {
   public:
    void on_round(Context& ctx, std::span<const Envelope> inbox) override {
      if (ctx.round() == 0) {
        MessageWriter w;
        for (std::uint64_t i = 0; i < 40; ++i) w.put_u64(~std::uint64_t{0} - i);
        ctx.send_all(w.finish());
        return;
      }
      for (const Envelope& env : inbox) {
        MessageReader r(env.payload);
        for (std::uint64_t i = 0; i < 40; ++i) {
          if (r.get_u64() != ~std::uint64_t{0} - i) return;  // leave ok_ false
        }
        ok_ = r.at_end();
      }
    }
    bool ok_ = false;
  };
  const Graph g = graph::cycle(6);
  const IdAssignment ids = IdAssignment::identity(6);
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<BigSender>(); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_GE(stats.max_link_bits, 40u * 10u * 8u);  // 40 max-size varints
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_TRUE(static_cast<const BigSender&>(sim.program(v)).ok_) << v;
  }
}

/// Steady-state rounds of the arena path perform zero heap allocations —
/// the acceptance bar for the zero-allocation delivery rewrite. The first
/// run warms every reusable buffer (arena, outboxes, timer wheel); the
/// second run on the same Simulator must then be allocation-free from
/// begin_run to quiescence.
TEST(Simulator, SteadyStateDeliveryIsAllocationFree) {
  ASSERT_TRUE(testsupport::allocation_probe_active());

  /// Chatty gossip with no per-node state at all, so every allocation in
  /// the run belongs to the simulator.
  class StatelessChatter final : public NodeProgram {
   public:
    void on_round(Context& ctx, std::span<const Envelope> inbox) override {
      std::uint64_t acc = 0;
      for (const Envelope& env : inbox) {
        MessageReader r(env.payload);
        while (!r.at_end()) acc ^= r.get_u64();
      }
      if (ctx.round() >= 24) return;
      MessageWriter w;
      w.put_u64(ctx.my_id()).put_u64(acc);
      ctx.send_all(w.finish());
      if (ctx.round() % 5 == 0) ctx.request_wakeup_at(ctx.round() + 2);
    }
  };

  const Graph g = graph::grid(12, 12);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  Simulator sim(g, ids, [](Vertex) { return std::make_unique<StatelessChatter>(); });
  const RunStats warm = sim.run();
  EXPECT_TRUE(warm.halted);

  const std::uint64_t before = testsupport::allocation_count();
  const RunStats steady = sim.run();
  const std::uint64_t after = testsupport::allocation_count();
  EXPECT_TRUE(steady.halted);
  EXPECT_EQ(steady.total_messages, warm.total_messages);
  EXPECT_EQ(after - before, 0u) << "steady-state run allocated";
}

TEST(Simulator, MismatchedIdAssignmentRejected) {
  const Graph g = graph::path(3);
  const IdAssignment ids = IdAssignment::identity(2);
  EXPECT_THROW(Simulator(g, ids, [](Vertex) { return std::make_unique<EchoProgram>(); }),
               util::CheckError);
}

TEST(Simulator, NullProgramRejected) {
  const Graph g = graph::path(2);
  const IdAssignment ids = IdAssignment::identity(2);
  EXPECT_THROW(Simulator(g, ids, [](Vertex) { return std::unique_ptr<NodeProgram>{}; }),
               util::CheckError);
}

// --- Simulator reuse (reset) -----------------------------------------------

RunOutcome run_gossip_on(Simulator& sim, const Graph& g, bool reference, bool with_drops) {
  sim.reset([](Vertex) { return std::make_unique<GossipProgram>(); });
  const Simulator::Options opt = test_options(g, with_drops);
  RunOutcome out;
  out.stats = reference ? sim.run_reference(opt) : sim.run(opt);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    out.transcripts.push_back(static_cast<const GossipProgram&>(sim.program(v)).transcript_);
  }
  return out;
}

/// The Simulator::reset contract (DESIGN.md §6): a reset-then-run on a
/// reused simulator is bit-identical to a fresh-build run — same RunStats
/// (incl. per-round records) and inbox transcripts — across both loops and
/// the drop adversary, even when the reused simulator
/// previously ran a *different* configuration (stale arenas, stale wheel).
TEST(Simulator, ResetRunMatchesFreshBuild) {
  util::Rng rng(7);  // same stream as DeterminismAcrossThreadCountsAndAdversary
  const Graph g = graph::random_regular(60, 6, rng);
  util::Rng id_rng(22);
  const IdAssignment ids = IdAssignment::shuffled(g.num_vertices(), id_rng);

  Simulator reused(g, ids);  // topology-only construction
  // Dirty the reusable state with an unrelated run first.
  reused.reset([](Vertex) { return std::make_unique<EchoProgram>(); });
  (void)reused.run();

  for (const bool reference : {kRun, kReference}) {
    for (const bool drops : {false, true}) {
      const std::string label =
          std::string(reference ? "reference" : "run") + (drops ? " drops" : "");
      const RunOutcome fresh = run_gossip(g, ids, reference, drops);
      const RunOutcome reset_run = run_gossip_on(reused, g, reference, drops);
      expect_identical(reset_run, fresh, label);
    }
  }
}

/// Back-to-back reset trials on one simulator must not interfere: the same
/// program config gives the same outcome on every repeat.
TEST(Simulator, RepeatedResetTrialsAreIndependent) {
  const Graph g = graph::grid(7, 7);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  Simulator sim(g, ids);
  const RunOutcome first = run_gossip_on(sim, g, kRun, false);
  for (int i = 0; i < 3; ++i) {
    const RunOutcome again = run_gossip_on(sim, g, kRun, false);
    expect_identical(again, first, "repeat " + std::to_string(i));
  }
}

/// The zero-allocation bar re-pinned across the pooled-program lifecycle:
/// after a warm trial, a full reset(factory) + run — which tears down and
/// reconstructs every NodeProgram — must be heap-silent, because program
/// storage recycles through the simulator's size-classed pool and delivery
/// recycles the arenas.
TEST(Simulator, PooledResetTrialsAreAllocationFree) {
  ASSERT_TRUE(testsupport::allocation_probe_active());

  /// Stateless chatter: all allocation in a trial belongs to the simulator
  /// and the program pool.
  class StatelessChatter final : public NodeProgram {
   public:
    void on_round(Context& ctx, std::span<const Envelope> inbox) override {
      std::uint64_t acc = 0;
      for (const Envelope& env : inbox) {
        MessageReader r(env.payload);
        while (!r.at_end()) acc ^= r.get_u64();
      }
      if (ctx.round() >= 12) return;
      MessageWriter w;
      w.put_u64(ctx.my_id() ^ acc);
      ctx.send_all(w.finish());
    }
  };
  const auto factory = [](Vertex) { return std::make_unique<StatelessChatter>(); };

  const Graph g = graph::grid(10, 10);
  const IdAssignment ids = IdAssignment::identity(g.num_vertices());
  Simulator sim(g, ids, factory);
  const RunStats warm = sim.run();
  EXPECT_TRUE(warm.halted);
  // One warm reset sets the pool's high-water mark for program blocks.
  sim.reset(factory);
  (void)sim.run();

  const std::uint64_t before = testsupport::allocation_count();
  sim.reset(factory);
  const RunStats steady = sim.run();
  const std::uint64_t after = testsupport::allocation_count();
  EXPECT_TRUE(steady.halted);
  EXPECT_EQ(steady.total_messages, warm.total_messages);
  EXPECT_EQ(after - before, 0u) << "reset trial allocated";
}

TEST(Simulator, TopologyOnlyConstructionRequiresReset) {
  const Graph g = graph::path(3);
  const IdAssignment ids = IdAssignment::identity(3);
  Simulator sim(g, ids);
  EXPECT_THROW((void)sim.run(), util::CheckError);
  sim.reset([](Vertex) { return std::make_unique<EchoProgram>(); });
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.total_messages, 4u);
}

TEST(Simulator, ResetRejectsNullPrograms) {
  const Graph g = graph::path(2);
  const IdAssignment ids = IdAssignment::identity(2);
  Simulator sim(g, ids);
  EXPECT_THROW(sim.reset([](Vertex) { return std::unique_ptr<NodeProgram>{}; }),
               util::CheckError);
  // A failed reset must fall back to the needs-reset state (run refuses),
  // not leave half-programmed nulls behind; a later good reset recovers.
  EXPECT_THROW((void)sim.run(), util::CheckError);
  sim.reset([](Vertex) { return std::make_unique<EchoProgram>(); });
  EXPECT_TRUE(sim.run().halted);
}

}  // namespace
}  // namespace decycle::congest
