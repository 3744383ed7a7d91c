/// engine/engine.hpp: DetectionEngine batch execution.
///
/// The contract under test: run_batch returns verdicts in submission order,
/// bit-identical to one-at-a-time execution on fresh simulators (run_fresh)
/// for any thread count and any session-cache capacity. Plus the
/// capability gates.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "congest/comm_model.hpp"
#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "engine/lanes.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace decycle::engine {
namespace {

PinnedGraphPtr pinned_wheel(graph::Vertex n) {
  graph::Graph g = graph::wheel(n);
  graph::IdAssignment ids = graph::IdAssignment::identity(n);
  return pin(std::move(g), std::move(ids));
}

std::vector<Query> tester_batch(const core::Detector& tester, std::size_t count,
                                std::uint64_t base_seed) {
  std::vector<Query> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries[i].detector = &tester;
    queries[i].options.k = 5;
    queries[i].options.epsilon = 0.25;
    queries[i].options.seed = trial_seed(base_seed, i);
    queries[i].options.repetitions = 2;
  }
  return queries;
}

bool verdicts_equal(const core::Verdict& a, const core::Verdict& b) {
  return a.accepted == b.accepted && a.rejecting_nodes == b.rejecting_nodes &&
         a.witness == b.witness && a.repetitions == b.repetitions && a.overflow == b.overflow &&
         a.truncated == b.truncated && a.max_bundle_sequences == b.max_bundle_sequences &&
         a.stats.rounds_executed == b.stats.rounds_executed &&
         a.stats.total_messages == b.stats.total_messages &&
         a.stats.total_bits == b.stats.total_bits && a.counters == b.counters;
}

TEST(DetectionEngine, BatchMatchesFreshRunsInSubmissionOrder) {
  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  const PinnedGraphPtr g = pinned_wheel(24);
  const std::vector<Query> queries = tester_batch(tester, 12, 77);

  const DetectionEngine eng;
  const std::vector<core::Verdict> batch = eng.run_batch(g, queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const core::Verdict fresh = tester.run_fresh(g->graph, g->ids, queries[i].options);
    EXPECT_TRUE(verdicts_equal(batch[i], fresh)) << "query " << i;
  }
}

TEST(DetectionEngine, ByteIdenticalAcrossThreadCountsWeightsAndCaching) {
  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  const PinnedGraphPtr g = pinned_wheel(20);
  const std::vector<Query> queries = tester_batch(tester, 17, 99);

  const DetectionEngine serial;
  const std::vector<core::Verdict> baseline = serial.run_batch(g, queries);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const DetectionEngine eng{EngineOptions{.pool = &pool}};
    const std::vector<core::Verdict> got = eng.run_batch(g, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(verdicts_equal(got[i], baseline[i])) << threads << " threads, query " << i;
    }
  }
  // The first batch builds every lane's session cold, the second runs on
  // the cached ones — same bytes (the reuse contract).
  util::ThreadPool pool(4);
  const DetectionEngine cached{EngineOptions{.pool = &pool}};
  for (int batch = 0; batch < 2; ++batch) {
    const std::vector<core::Verdict> got = cached.run_batch(g, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(verdicts_equal(got[i], baseline[i])) << "batch " << batch << ", query " << i;
    }
  }
  EXPECT_GT(cached.session_stats().hits, 0u);
}

TEST(DetectionEngine, HomogeneousBatchLeasesOncePerLane) {
  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  const PinnedGraphPtr g = pinned_wheel(16);
  const DetectionEngine eng;  // no pool: one lane
  (void)eng.run_batch(g, tester_batch(tester, 10, 5));
  const SessionStats s = eng.session_stats();
  EXPECT_EQ(s.misses, 1u);  // one lease for the whole lane, not one per query
  EXPECT_EQ(s.hits, 0u);
  // A second batch on the same content is a warm start.
  (void)eng.run_batch(g, tester_batch(tester, 10, 6));
  EXPECT_EQ(eng.session_stats().hits, 1u);
}

TEST(DetectionEngine, RunOneAndRunUncachedAgree) {
  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  const PinnedGraphPtr g = pinned_wheel(18);
  Query q = tester_batch(tester, 1, 123)[0];
  const DetectionEngine eng;
  const core::Verdict a = eng.run_one(g, q);
  const core::Verdict b = tester.run_fresh(g->graph, g->ids, q.options);
  EXPECT_TRUE(verdicts_equal(a, b));
}

TEST(DetectionEngine, RejectsModelTheDetectorCannotRun) {
  const core::Detector& tester = core::DetectorRegistry::builtin().require("tester");
  const PinnedGraphPtr g = pinned_wheel(12);
  Query q = tester_batch(tester, 1, 1)[0];
  q.model = &congest::CommModel::clique();  // the tester is congest-only
  const DetectionEngine eng;
  EXPECT_THROW((void)eng.run_one(g, q), util::CheckError);
}

TEST(DetectionEngine, EmptyBatchAndMissingDetectorFailFast) {
  const PinnedGraphPtr g = pinned_wheel(12);
  const DetectionEngine eng;
  EXPECT_TRUE(eng.run_batch(g, {}).empty());
  Query q;  // detector left null
  EXPECT_THROW((void)eng.run_one(g, q), util::CheckError);
}

}  // namespace
}  // namespace decycle::engine
