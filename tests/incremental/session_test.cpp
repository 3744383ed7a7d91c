/// incremental/session.hpp — IncrementalSession: the stream ↔ engine bridge.
///
/// Contracts under test: apply() verdicts agree with a reference
/// ForestConnectivity; checkpoint() materializes exactly the accumulated
/// edges; run_batch() verdicts on the snapshot equal a fresh uncached run
/// on the same graph; and the epoch/purge half — a mutating apply() with a
/// live snapshot retires the snapshot's cached sessions, visible in the
/// SessionPool's purge counters (the PR's --engine-stats surface).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/threshold/budget.hpp"
#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "incremental/incremental.hpp"
#include "incremental/session.hpp"
#include "incremental/stream.hpp"
#include "util/check.hpp"

namespace decycle::incremental {
namespace {

engine::Query exact_threshold_query(unsigned k) {
  engine::Query q;
  q.detector = &core::DetectorRegistry::builtin().require("threshold");
  q.options.k = k;
  q.options.seed = 99;
  q.options.budget = core::threshold::BudgetSchedule::none();
  q.options.max_tracked = 0;  // unlimited + untracked = exhaustive scan
  return q;
}

TEST(IncrementalSession, RejectsEmptyName) {
  engine::DetectionEngine engine;
  EXPECT_THROW(IncrementalSession(engine, "", 4), util::CheckError);
}

TEST(IncrementalSession, ApplyVerdictsMatchAReferenceDetector) {
  StreamSpec spec;
  spec.n = 36;
  spec.inserts = 90;
  spec.seed = 21;
  const InsertStream stream = generate_stream(spec);
  engine::DetectionEngine engine;
  IncrementalSession session(engine, "apply-verdicts", spec.n);
  ForestConnectivity reference(spec.n);
  // Apply in uneven batches; per-insert flags line up with the reference.
  const std::size_t batch = 7;
  for (std::size_t i = 0; i < stream.inserts.size(); i += batch) {
    const std::size_t len = std::min(batch, stream.inserts.size() - i);
    const BatchVerdicts verdicts = session.apply({stream.inserts.data() + i, len});
    ASSERT_EQ(verdicts.closed.size(), len);
    for (std::size_t j = 0; j < len; ++j) {
      const auto [u, v] = stream.inserts[i + j];
      EXPECT_EQ(verdicts.closed[j] != 0, reference.insert_fast(u, v));
    }
  }
  EXPECT_EQ(session.closures(), reference.closures());
  EXPECT_EQ(session.inserts(), stream.inserts.size());
}

TEST(IncrementalSession, CheckpointMaterializesTheAccumulatedEdges) {
  engine::DetectionEngine engine;
  IncrementalSession session(engine, "checkpoint", 5);
  EXPECT_FALSE(session.insert(0, 1));
  EXPECT_FALSE(session.insert(3, 2));  // canonicalized to (2,3)
  const engine::PinnedGraphPtr pin = session.checkpoint();
  EXPECT_EQ(pin->graph.num_vertices(), 5u);
  EXPECT_EQ(pin->graph.num_edges(), 2u);
  // Clean checkpoint is the same pin; a mutation makes a new one.
  EXPECT_EQ(session.checkpoint().get(), pin.get());
  EXPECT_FALSE(session.insert(0, 4));
  EXPECT_NE(session.checkpoint().get(), pin.get());
  EXPECT_EQ(session.checkpoint()->graph.num_edges(), 3u);
}

TEST(IncrementalSession, RunBatchEqualsAFreshRunOnTheSameGraph) {
  StreamSpec spec;
  spec.n = 24;
  spec.inserts = 40;
  spec.seed = 8;
  const InsertStream stream = generate_stream(spec);
  engine::DetectionEngine engine;
  IncrementalSession session(engine, "bridge", spec.n);
  std::vector<graph::Edge> edges;
  for (const auto& [u, v] : stream.inserts) {
    (void)session.insert(u, v);
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  const engine::Query q = exact_threshold_query(4);
  const std::vector<core::Verdict> bridged = session.run_batch({&q, 1});
  const core::Verdict fresh = q.detector->run_fresh(
      graph::Graph::from_edges(spec.n, edges), graph::IdAssignment::identity(spec.n), q.options);
  ASSERT_EQ(bridged.size(), 1u);
  EXPECT_EQ(bridged[0].accepted, fresh.accepted);
  EXPECT_EQ(bridged[0].counters, fresh.counters);
}

TEST(IncrementalSession, ExactQueriesTrackTheStream) {
  engine::DetectionEngine engine;
  IncrementalSession session(engine, "track", 8);
  // Path 0-1-2-3: forest, every C_k scan accepts.
  (void)session.insert(0, 1);
  (void)session.insert(1, 2);
  (void)session.insert(2, 3);
  engine::Query q = exact_threshold_query(4);
  EXPECT_TRUE(session.run_batch({&q, 1})[0].accepted);
  // Close the 4-cycle: the same query must now reject.
  EXPECT_TRUE(session.insert(3, 0));
  EXPECT_FALSE(session.run_batch({&q, 1})[0].accepted);
}

TEST(IncrementalSession, SameNameSessionsAreIndependent) {
  // A name labels a session, it does not address a snapshot: two sessions
  // named "t" on one engine, and A's insert must bump only A's pin, so B's
  // cached session survives and B's next query is a cache hit.
  engine::DetectionEngine engine;
  IncrementalSession a(engine, "t", 6);
  IncrementalSession b(engine, "t", 6);
  (void)a.insert(0, 1);
  (void)b.insert(1, 2);  // different content, so the pins share no sessions
  const engine::PinnedGraphPtr pin_a = a.checkpoint();
  const engine::PinnedGraphPtr pin_b = b.checkpoint();
  ASSERT_NE(pin_a->hash, pin_b->hash);

  const engine::Query q = exact_threshold_query(3);
  (void)b.run_batch({&q, 1});  // builds + caches B's session
  (void)b.run_batch({&q, 1});  // served from the cache
  ASSERT_EQ(engine.session_stats().misses, 1u);
  ASSERT_EQ(engine.session_stats().hits, 1u);

  (void)a.insert(2, 3);
  EXPECT_EQ(pin_a->epoch.load(), 1u);
  EXPECT_EQ(pin_b->epoch.load(), 0u);
  (void)b.run_batch({&q, 1});
  const engine::SessionStats s = engine.session_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(IncrementalSessionEpoch, MutationBumpsEpochAndPurgesCachedSessions) {
  engine::DetectionEngine engine;
  IncrementalSession session(engine, "epoch-purge", 6);
  (void)session.insert(0, 1);
  const engine::PinnedGraphPtr pin1 = session.checkpoint();
  const std::uint64_t epoch_before = pin1->epoch.load();

  const engine::Query q = exact_threshold_query(3);
  (void)session.run_batch({&q, 1});  // builds + caches one session
  (void)session.run_batch({&q, 1});  // served from the cache
  engine::SessionStats s = engine.session_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.purges, 0u);
  EXPECT_EQ(engine.sessions().idle_count(), 1u);

  // The mutation half of the contract: a live snapshot means apply() bumps
  // the pin's epoch and purges its idle sessions.
  (void)session.insert(2, 3);
  EXPECT_GT(pin1->epoch.load(), epoch_before);
  s = engine.session_stats();
  EXPECT_EQ(s.purges, 1u);
  EXPECT_EQ(s.purged_sessions, 1u);
  EXPECT_EQ(s.evictions, 0u);  // purge is not a capacity eviction
  EXPECT_EQ(engine.sessions().idle_count(), 0u);

  // The next query runs on the new snapshot and must rebuild (a miss, never
  // a stale hit).
  (void)session.run_batch({&q, 1});
  s = engine.session_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(IncrementalSessionEpoch, NoPinMeansNothingToPurge) {
  engine::DetectionEngine engine;
  IncrementalSession session(engine, "no-pin", 4);
  (void)session.insert(0, 1);  // no checkpoint yet: no bump, no purge
  const engine::SessionStats s = engine.session_stats();
  EXPECT_EQ(s.purges, 0u);
  EXPECT_EQ(s.purged_sessions, 0u);
}

}  // namespace
}  // namespace decycle::incremental
