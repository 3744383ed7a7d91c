#include "core/trace.hpp"

#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace decycle::core {
namespace {

using graph::Graph;
using graph::IdAssignment;

const Detector& kChecker = DetectorRegistry::builtin().require("edge_checker");

Verdict traced_run(const Graph& g, unsigned k, graph::Edge e, TraceSink& sink,
                   PruningMode mode = PruningMode::kRepresentative,
                   std::size_t naive_cap = 1u << 18) {
  DetectorOptions opt;
  opt.k = k;
  opt.edge = e;
  opt.trace = &sink;
  opt.pruning = mode;
  opt.naive_cap = naive_cap;
  return kChecker.run_fresh(g, IdAssignment::identity(g.num_vertices()), opt);
}

TEST(Trace, SeedsRecordedForBothEndpoints) {
  TraceSink sink;
  (void)traced_run(graph::cycle(5), 5, {0, 1}, sink);
  EXPECT_EQ(sink.count(TraceEvent::Kind::kSeed), 2u);
  const auto u_events = sink.events_for(0);
  ASSERT_FALSE(u_events.empty());
  EXPECT_EQ(u_events.front().kind, TraceEvent::Kind::kSeed);
}

TEST(Trace, RejectEventCarriesWitness) {
  TraceSink sink;
  const auto result = traced_run(graph::cycle(6), 6, {0, 1}, sink);
  ASSERT_FALSE(result.accepted);
  // Both endpoints of the antipodal edge detect independently for even k.
  EXPECT_GE(sink.count(TraceEvent::Kind::kReject), 1u);
  EXPECT_LE(sink.count(TraceEvent::Kind::kReject), 2u);
  for (const auto& e : sink.events()) {
    if (e.kind == TraceEvent::Kind::kReject) {
      EXPECT_EQ(e.sequence.size(), 6u);
    }
  }
}

TEST(Trace, NoDropsOnSparseInstances) {
  // On a bare cycle every candidate survives pruning (tiny pools).
  TraceSink sink;
  (void)traced_run(graph::cycle(9), 9, {0, 8}, sink);
  EXPECT_EQ(sink.count(TraceEvent::Kind::kDrop), 0u);
  EXPECT_GT(sink.count(TraceEvent::Kind::kKeep), 0u);
  EXPECT_GT(sink.count(TraceEvent::Kind::kSend), 0u);
}

TEST(Trace, SingleChoiceForwardingRecordsDrops) {
  // Figure 1 gadget, naive cap 1: one of the two candidates at each middle
  // vertex must be dropped.
  graph::GraphBuilder b;
  b.add_edge(0, 1);
  for (graph::Vertex x : {3u, 4u}) {
    b.add_edge(0, x);
    b.add_edge(1, x);
    b.add_edge(x, 2);
  }
  TraceSink sink;
  const auto result = traced_run(b.build(), 5, {0, 1}, sink, PruningMode::kNaive, 1);
  EXPECT_TRUE(result.accepted);
  EXPECT_GE(sink.count(TraceEvent::Kind::kDrop), 2u);
}

TEST(Trace, KeepPlusDropEqualsReceiveOnPruningRounds) {
  TraceSink sink;
  (void)traced_run(graph::complete(8), 7, {0, 1}, sink);
  std::size_t receives_on_pruning_rounds = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == TraceEvent::Kind::kReceive && e.round < 7 / 2) ++receives_on_pruning_rounds;
  }
  EXPECT_EQ(sink.count(TraceEvent::Kind::kKeep) + sink.count(TraceEvent::Kind::kDrop),
            receives_on_pruning_rounds);
}

TEST(Trace, RenderIsHumanReadable) {
  TraceSink sink;
  (void)traced_run(graph::cycle(5), 5, {0, 1}, sink);
  const std::string text = sink.render();
  EXPECT_NE(text.find("seed"), std::string::npos);
  EXPECT_NE(text.find("REJECT"), std::string::npos);
  EXPECT_NE(text.find("node 0"), std::string::npos);
}

TEST(Trace, EventsAreSortedByRoundThenNode) {
  TraceSink sink;
  (void)traced_run(graph::cycle(7), 7, {0, 1}, sink);
  const auto events = sink.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].round, events[i].round);
  }
}

TEST(Trace, ClearEmptiesSink) {
  TraceSink sink;
  (void)traced_run(graph::cycle(5), 5, {0, 1}, sink);
  EXPECT_FALSE(sink.events().empty());
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

/// Queries running in parallel engine lanes may share one sink: eight
/// traced edge_checker queries, each on its own target edge, run through
/// run_batch on a 4-thread pool and must record exactly the serial batch's
/// events.
TEST(Trace, SharedSinkAcrossEngineLanesMatchesSerialBatch) {
  const engine::PinnedGraphPtr pinned =
      engine::pin(graph::complete_bipartite(8, 8), IdAssignment::identity(16));
  const auto traced_batch = [&](util::ThreadPool* pool) {
    TraceSink sink;
    std::vector<engine::Query> queries(8);
    for (graph::EdgeId e = 0; e < queries.size(); ++e) {
      queries[e].detector = &kChecker;
      queries[e].options.k = 6;
      queries[e].options.edge = pinned->graph.edge(e);
      queries[e].options.trace = &sink;
    }
    const engine::DetectionEngine eng{engine::EngineOptions{.pool = pool}};
    (void)eng.run_batch(pinned, queries);
    return sink.events();
  };

  util::ThreadPool pool(4);
  const std::vector<TraceEvent> a = traced_batch(nullptr);
  const std::vector<TraceEvent> b = traced_batch(&pool);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].round, b[i].round) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_EQ(a[i].sequence, b[i].sequence) << i;
  }
}

TEST(TraceKindNames, Distinct) {
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kSeed), "seed");
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kDrop), "drop");
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kReject), "REJECT");
}

}  // namespace
}  // namespace decycle::core
