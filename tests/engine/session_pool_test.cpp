/// engine/session_pool.hpp: capacity-bounded LRU session cache with
/// lane-confined leases.
///
/// The safety property under test everywhere here: eviction touches idle
/// sessions only. A leased session is owned by its lane — the pool has
/// forgotten it — so no eviction, purge, or capacity pressure can free a
/// Simulator mid-run (lease-while-evicted safety).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "congest/comm_model.hpp"
#include "engine/graph_store.hpp"
#include "engine/session_pool.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"

namespace decycle::engine {
namespace {

PinnedGraphPtr pinned_ring(graph::Vertex n) {
  graph::Graph g = graph::cycle(n);
  graph::IdAssignment ids = graph::IdAssignment::identity(n);
  return pin(std::move(g), std::move(ids));
}

TEST(SessionPool, MissThenHitOnSameKey) {
  SessionPool pool(4);
  const PinnedGraphPtr g = pinned_ring(12);
  {
    SessionPool::Lease lease = pool.lease(g, congest::CommModel::congest());
    EXPECT_FALSE(lease.cached());
    EXPECT_TRUE(static_cast<bool>(lease));
  }  // released -> idle
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    SessionPool::Lease lease = pool.lease(g, congest::CommModel::congest());
    EXPECT_TRUE(lease.cached());
  }
  const SessionStats s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(SessionPool, DistinctKeysNeverShareSessions) {
  SessionPool pool(8);
  const PinnedGraphPtr g = pinned_ring(12);
  { (void)pool.lease(g, congest::CommModel::congest()); }
  // Different models are different keys: all misses.
  { (void)pool.lease(g, congest::CommModel::clique()); }
  const SessionStats s = pool.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(SessionPool, EpochBumpRetiresCachedSessions) {
  SessionPool pool(4);
  const PinnedGraphPtr g = pinned_ring(12);
  { (void)pool.lease(g, congest::CommModel::congest()); }
  g->epoch.fetch_add(1);
  SessionPool::Lease lease = pool.lease(g, congest::CommModel::congest());
  EXPECT_FALSE(lease.cached());  // old-epoch session never matches again
}

TEST(SessionPool, LruEvictionUnderMixedKeys) {
  SessionPool pool(2);  // capacity bounds idle sessions
  const PinnedGraphPtr a = pinned_ring(8);
  const PinnedGraphPtr b = pinned_ring(9);
  const PinnedGraphPtr c = pinned_ring(10);
  { (void)pool.lease(a, congest::CommModel::congest()); }  // idle: a
  { (void)pool.lease(b, congest::CommModel::congest()); }  // idle: a, b
  { (void)pool.lease(c, congest::CommModel::congest()); }  // a is LRU -> evicted
  EXPECT_EQ(pool.idle_count(), 2u);
  EXPECT_EQ(pool.stats().evictions, 1u);
  // b and c were kept, a was not.
  EXPECT_TRUE(pool.lease(b, congest::CommModel::congest()).cached());
  EXPECT_TRUE(pool.lease(c, congest::CommModel::congest()).cached());
  EXPECT_FALSE(pool.lease(a, congest::CommModel::congest()).cached());
}

TEST(SessionPool, TouchRefreshesLruOrder) {
  SessionPool pool(2);
  const PinnedGraphPtr a = pinned_ring(8);
  const PinnedGraphPtr b = pinned_ring(9);
  const PinnedGraphPtr c = pinned_ring(10);
  { (void)pool.lease(a, congest::CommModel::congest()); }
  { (void)pool.lease(b, congest::CommModel::congest()); }
  { (void)pool.lease(a, congest::CommModel::congest()); }  // touch a: b is now LRU
  { (void)pool.lease(c, congest::CommModel::congest()); }  // evicts b
  EXPECT_TRUE(pool.lease(a, congest::CommModel::congest()).cached());
  EXPECT_FALSE(pool.lease(b, congest::CommModel::congest()).cached());
}

TEST(SessionPool, CapacityZeroCachesNothing) {
  SessionPool pool(0);
  const PinnedGraphPtr g = pinned_ring(8);
  { (void)pool.lease(g, congest::CommModel::congest()); }
  EXPECT_EQ(pool.idle_count(), 0u);
  EXPECT_FALSE(pool.lease(g, congest::CommModel::congest()).cached());
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(SessionPool, LeasedSessionSurvivesEvictionPressureAndPurge) {
  SessionPool pool(1);
  const PinnedGraphPtr g = pinned_ring(16);
  SessionPool::Lease held = pool.lease(g, congest::CommModel::congest());
  // Pressure: churn other keys through the capacity-1 idle cache, and purge
  // the held session's graph hash outright. Neither may touch the lease —
  // the pool no longer owns it.
  for (graph::Vertex n = 8; n < 12; ++n) {
    (void)pool.lease(pinned_ring(n), congest::CommModel::congest());
  }
  pool.purge(g->hash);
  // The leased simulator is fully usable after all that.
  EXPECT_EQ(held.sim().graph().num_vertices(), 16u);
  EXPECT_EQ(held.key().graph_hash, g->hash);
  held.release();  // and returns to the pool without incident
  EXPECT_GE(pool.idle_count(), 1u);
}

TEST(SessionPool, PurgeDropsEveryIdleSessionOfTheGraph) {
  SessionPool pool(8);
  const PinnedGraphPtr g = pinned_ring(12);
  const PinnedGraphPtr other = pinned_ring(20);
  { (void)pool.lease(g, congest::CommModel::congest()); }
  { (void)pool.lease(g, congest::CommModel::clique()); }
  { (void)pool.lease(other, congest::CommModel::congest()); }
  EXPECT_EQ(pool.idle_count(), 3u);
  pool.purge(g->hash);
  EXPECT_EQ(pool.idle_count(), 1u);  // only `other` remains
  EXPECT_TRUE(pool.lease(other, congest::CommModel::congest()).cached());
  // Purge counters are distinct from capacity evictions (--engine-stats
  // reports both): one purge() call, two idle sessions of g destroyed.
  const SessionStats s = pool.stats();
  EXPECT_EQ(s.purges, 1u);
  EXPECT_EQ(s.purged_sessions, 2u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(SessionPool, ReleaseIsIdempotentAndMoveSafe) {
  SessionPool pool(4);
  const PinnedGraphPtr g = pinned_ring(8);
  SessionPool::Lease a = pool.lease(g, congest::CommModel::congest());
  a.release();
  a.release();  // second release is a no-op
  EXPECT_EQ(pool.idle_count(), 1u);
  SessionPool::Lease b = pool.lease(g, congest::CommModel::congest());
  SessionPool::Lease c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(static_cast<bool>(c));
  c.release();
  EXPECT_EQ(pool.idle_count(), 1u);
}

/// Concurrent lease/release stress across mixed keys — run under TSan via
/// `ctest -L engine` in the sanitize lane. Lock discipline, LRU bookkeeping,
/// and the lease-ownership handoff must all be race-free.
TEST(SessionPool, ConcurrentLeaseStress) {
  SessionPool pool(4);
  std::vector<PinnedGraphPtr> graphs;
  for (graph::Vertex n = 8; n < 14; ++n) graphs.push_back(pinned_ring(n));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, &graphs, t] {
      for (int i = 0; i < 50; ++i) {
        const PinnedGraphPtr& g = graphs[(t + i) % graphs.size()];
        SessionPool::Lease lease = pool.lease(g, congest::CommModel::congest());
        // Touch the leased simulator: concurrent use of *distinct* sessions
        // must be safe by construction.
        EXPECT_EQ(lease.sim().graph().num_vertices(), g->graph.num_vertices());
        if (i % 7 == 0) pool.purge(g->hash);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const SessionStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 50u);
  EXPECT_LE(pool.idle_count(), pool.capacity());
}

}  // namespace
}  // namespace decycle::engine
