/// engine/graph_store.hpp + engine/session_pool.hpp — the epoch/purge
/// contract under the concurrency the incremental service creates.
///
/// IncrementalSession::apply bumps its pinned snapshot's epoch and purges
/// the pin's cached sessions on every mutating batch, while query lanes may
/// be leasing concurrently. The safety property: an in-flight Lease owns
/// its session outright — it completes on the old epoch untouched by any
/// bump or purge — while leases taken after a bump key on the new epoch,
/// never match a stale session, and rebuild. The stress suites here run
/// under TSan (the CI lane selects them by the "Incremental" name) with
/// writers hammering bump+purge against reader lanes leasing and releasing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "congest/comm_model.hpp"
#include "engine/graph_store.hpp"
#include "engine/session_pool.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"

namespace decycle::engine {
namespace {

constexpr graph::Vertex kRing = 16;

PinnedGraphPtr pin_ring() {
  return pin(graph::cycle(kRing), graph::IdAssignment::identity(kRing));
}

/// The apply() path's epoch bump; returns the new epoch.
std::uint64_t bump(const PinnedGraphPtr& p) {
  return p->epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
}

TEST(IncrementalEpoch, InFlightLeaseCompletesOnTheOldEpoch) {
  const PinnedGraphPtr ring = pin_ring();
  SessionPool pool(4);

  SessionPool::Lease held = pool.lease(ring, congest::CommModel::congest());
  const std::uint64_t old_epoch = held.key().epoch;

  // Mutation while the lease is in flight: bump + purge (the apply() path).
  const std::uint64_t new_epoch = bump(ring);
  pool.purge(ring->hash);
  EXPECT_GT(new_epoch, old_epoch);

  // The held lease is untouched: same old-epoch key, simulator fully usable.
  EXPECT_EQ(held.key().epoch, old_epoch);
  EXPECT_EQ(held.sim().graph().num_vertices(), kRing);
  held.release();

  // A post-bump lease keys on the new epoch: the released old-epoch session
  // can never match again, so this is a rebuild, not a stale hit.
  SessionPool::Lease fresh = pool.lease(ring, congest::CommModel::congest());
  EXPECT_FALSE(fresh.cached());
  EXPECT_EQ(fresh.key().epoch, new_epoch);
}

TEST(IncrementalEpochStress, ConcurrentBumpPurgeVersusLeases) {
  const PinnedGraphPtr ring = pin_ring();
  SessionPool pool(8);

  constexpr int kReaders = 4;
  constexpr int kLeasesPerReader = 150;
  constexpr int kBumps = 150;
  std::atomic<bool> start{false};
  std::atomic<std::uint64_t> stale_hits{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kLeasesPerReader; ++i) {
        const std::uint64_t epoch_floor = ring->epoch.load(std::memory_order_acquire);
        SessionPool::Lease lease = pool.lease(ring, congest::CommModel::congest());
        // The leased session's epoch can never predate what this thread
        // already observed: purge removed older idle sessions and the key
        // folds the epoch, so a match at an older epoch is impossible.
        if (lease.key().epoch < epoch_floor) stale_hits.fetch_add(1);
        // Touch the simulator: TSan flags any unsynchronized overlap with a
        // concurrent purge destroying sessions.
        if (lease.sim().graph().num_vertices() != kRing) stale_hits.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kBumps; ++i) {
      (void)bump(ring);
      pool.purge(ring->hash);
    }
  });

  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stale_hits.load(), 0u);

  // Quiesced: one final bump retires every surviving idle session, so the
  // next lease must be a rebuild at the final epoch.
  const std::uint64_t final_epoch = bump(ring);
  SessionPool::Lease lease = pool.lease(ring, congest::CommModel::congest());
  EXPECT_FALSE(lease.cached());
  EXPECT_EQ(lease.key().epoch, final_epoch);
  const SessionStats stats = pool.stats();
  EXPECT_EQ(stats.purges, static_cast<std::uint64_t>(kBumps));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kReaders * kLeasesPerReader) + 1);
}

TEST(IncrementalEpochStress, ConcurrentLeasesNeverShareASession) {
  // Two lanes lease the same key simultaneously: each must get its own
  // session (the second is a concurrent miss, not a shared hit).
  const PinnedGraphPtr ring = pin_ring();
  SessionPool pool(8);

  constexpr int kLanes = 4;
  std::atomic<bool> start{false};
  std::atomic<int> overlap_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kLanes);
  for (int l = 0; l < kLanes; ++l) {
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 100; ++i) {
        SessionPool::Lease a = pool.lease(ring, congest::CommModel::congest());
        SessionPool::Lease b = pool.lease(ring, congest::CommModel::congest());
        if (&a.sim() == &b.sim()) overlap_errors.fetch_add(1);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(overlap_errors.load(), 0);
}

}  // namespace
}  // namespace decycle::engine
