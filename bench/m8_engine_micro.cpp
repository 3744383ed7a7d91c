/// \file m8_engine_micro.cpp
/// \brief Micro-benchmark M8 — DetectionEngine session cache and batch
/// execution at scale.
///
/// Gates the engine layer (pinned graphs, SessionPool, run_batch) on two
/// axes, at n ∈ {10k, 100k, 1M} on circulant C_n(1..4):
///
///   * session_* — per-query latency on a fresh Simulator build per query
///     (Detector::run_fresh: the pre-engine cost model) vs through the
///     engine (one leased, reset() session), median of 5 repetitions in
///     full mode: the median ratio must be >= 1.5x at 100k;
///   * batch_* — a mixed-seed query batch through run_batch swept over
///     thread counts {1, 4, 8} vs the same queries one-at-a-time through
///     run_one: lane fan-out throughput, with every threaded batch's verdict
///     aggregates cross-checked against the single-threaded batch (the
///     byte-identity contract) — any disagreement exits 1. A thread count
///     above the machine's hardware threads still runs and is cross-checked,
///     but its timings are not reported.
///
/// Writes BENCH_engine.json (override with --out=PATH; bench_common.hpp);
/// --smoke shrinks to {10k, 50k} and small batches for CI.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "engine/lanes.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace decycle;

/// Order-independent fold of everything a verdict says — equal folds across
/// thread counts is the cross-check (order-dependence would hide a slot
/// permutation, but the goldens gate ordering already; this gates content).
struct VerdictFold {
  std::uint64_t rejections = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t counters = 0;

  void add(const core::Verdict& v) {
    rejections += v.accepted ? 0 : 1;
    rounds += v.stats.rounds_executed;
    messages += v.stats.total_messages;
    bits += v.stats.total_bits;
    for (const std::uint64_t c : v.counters) counters += c;
  }
  bool operator==(const VerdictFold&) const = default;
};

VerdictFold fold_all(const std::vector<core::Verdict>& verdicts) {
  VerdictFold f;
  for (const core::Verdict& v : verdicts) f.add(v);
  return f;
}

/// Edge-checker queries: k/2+1 rounds of deterministic work against an
/// O(m) per-query Simulator build, so construction is a real fraction of
/// per-query cost — the workload session caching exists for (m4's biggest
/// reuse win is the same detector; the unbounded tester is run-dominated
/// at these sizes).
std::vector<engine::Query> make_batch(const core::Detector& detector, std::size_t count,
                                      std::uint64_t base_seed) {
  std::vector<engine::Query> queries(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries[i].detector = &detector;
    queries[i].options.k = 5;
    queries[i].options.seed = engine::trial_seed(base_seed, i);
  }
  return queries;
}

struct ThreadRow {
  unsigned threads = 0;
  double seconds = 0;
  double queries_per_sec = 0;
};

struct SizeRow {
  graph::Vertex n = 0;
  std::size_t edges = 0;
  std::size_t queries = 0;
  double cold_ms_per_query = 0;    ///< run_fresh: fresh Simulator per query
  double cached_ms_per_query = 0;  ///< cache on: one leased, reset() session
  double session_speedup = 0;
  double sequential_s = 0;  ///< run_one loop, cached, no pool
  std::vector<ThreadRow> batch;
};

}  // namespace

int run(const util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  args.reject_unknown();
  harness::ClaimSet claims("m8_engine_micro");

  const core::Detector& detector = core::DetectorRegistry::builtin().require("edge_checker");
  const std::vector<graph::Vertex> sizes =
      smoke ? std::vector<graph::Vertex>{10'000, 50'000}
            : std::vector<graph::Vertex>{10'000, 100'000, 1'000'000};
  const std::vector<unsigned> thread_counts = {1, 4, 8};

  std::vector<SizeRow> rows;
  for (const graph::Vertex n : sizes) {
    // Query counts keep per-size wall clock flat-ish: fewer at 1M.
    const std::size_t latency_q = smoke ? 4 : (n >= 1'000'000 ? 3 : (n >= 100'000 ? 8 : 16));
    const std::size_t batch_q = smoke ? 8 : (n >= 1'000'000 ? 8 : (n >= 100'000 ? 24 : 48));

    const engine::PinnedGraphPtr g =
        engine::pin(graph::circulant(n, 4), graph::IdAssignment::identity(n));
    SizeRow row;
    row.n = n;
    row.edges = g->graph.num_edges();
    row.queries = batch_q;
    const std::string at = "n=" + std::to_string(n);

    // --- Session latency: cold (run_fresh) vs cached (reset-reuse). ---
    // Full mode repeats both loops and reports medians: one pass of a few
    // ~20 ms queries swings with the host, and the 1.5x gate reads the
    // median ratio.
    const std::vector<engine::Query> latency_batch = make_batch(detector, latency_q, 808);
    const std::size_t reps = smoke ? 1 : 5;
    const engine::DetectionEngine cached;
    // Warm allocator pools and populate the session cache, untimed.
    (void)detector.run_fresh(g->graph, g->ids, latency_batch[0].options);
    (void)cached.run_one(g, latency_batch[0]);
    util::Percentiles cold_ms;
    util::Percentiles cached_ms;
    util::Percentiles ratios;
    std::printf("n=%-9u session_speedup per repetition:", n);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      util::WallTimer timer;
      std::vector<core::Verdict> verdicts;
      verdicts.reserve(latency_q);
      for (const engine::Query& q : latency_batch) {
        verdicts.push_back(detector.run_fresh(g->graph, g->ids, q.options));
      }
      const double cold = timer.millis() / static_cast<double>(latency_q);
      timer.restart();
      const VerdictFold warm_fold = fold_all(cached.run_batch(g, latency_batch));
      const double warm = timer.millis() / static_cast<double>(latency_q);
      claims.check(at + ": cached session keeps the verdicts", warm_fold == fold_all(verdicts));
      cold_ms.add(cold);
      cached_ms.add(warm);
      ratios.add(warm > 0 ? cold / warm : 0.0);
      std::printf(" %.2fx", warm > 0 ? cold / warm : 0.0);
    }
    std::printf("\n");
    claims.check(at + ": warm batch reuses its session", cached.session_stats().misses == 1);
    row.cold_ms_per_query = cold_ms.median();
    row.cached_ms_per_query = cached_ms.median();
    row.session_speedup = ratios.median();

    // --- Batch throughput across thread counts vs sequential run_one. ---
    const std::vector<engine::Query> batch = make_batch(detector, batch_q, 909);
    VerdictFold base_fold;
    {
      const engine::DetectionEngine eng;
      (void)eng.run_one(g, batch[0]);  // warm
      const util::WallTimer timer;
      std::vector<core::Verdict> verdicts;
      verdicts.reserve(batch_q);
      for (const engine::Query& q : batch) verdicts.push_back(eng.run_one(g, q));
      row.sequential_s = timer.seconds();
      base_fold = fold_all(verdicts);
    }
    for (const unsigned t : thread_counts) {
      std::unique_ptr<util::ThreadPool> pool;
      if (t > 1) pool = std::make_unique<util::ThreadPool>(t);
      const engine::DetectionEngine eng{engine::EngineOptions{.pool = pool.get()}};
      (void)eng.run_one(g, batch[0]);  // warm one session; lanes still miss once each
      const util::WallTimer timer;
      const VerdictFold fold = fold_all(eng.run_batch(g, batch));
      ThreadRow tr;
      tr.threads = t;
      tr.seconds = timer.seconds();
      tr.queries_per_sec = tr.seconds > 0 ? static_cast<double>(batch_q) / tr.seconds : 0;
      row.batch.push_back(tr);
      claims.check(at + ": " + std::to_string(t) + "-thread batch agrees with run_one",
                   fold == base_fold);
    }

    rows.push_back(row);
    std::printf("n=%-9u cold %8.3f ms/q  cached %8.3f ms/q  session_speedup %5.2fx\n", row.n,
                row.cold_ms_per_query, row.cached_ms_per_query, row.session_speedup);
    for (const ThreadRow& tr : row.batch) {
      if (!bench::timed(tr.threads)) {
        std::printf("  batch %3zu queries  threads=%u  (untimed: over %u hardware threads)\n",
                    row.queries, tr.threads, bench::hardware_threads());
        continue;
      }
      std::printf("  batch %3zu queries  threads=%u  %8.4fs  %9.1f q/s  (sequential %8.4fs)\n",
                  row.queries, tr.threads, tr.seconds, tr.queries_per_sec, row.sequential_s);
    }
  }

  // The headline acceptance number: the session cache must be worth >= 1.5x
  // at the 100k working set, as the median over the repetitions (full mode
  // only — smoke sizes differ).
  if (!smoke) {
    for (const SizeRow& row : rows) {
      if (row.n == 100'000) {
        claims.check("median session cache >= 1.5x at n=100k", row.session_speedup >= 1.5);
      }
    }
  }

  bench::BenchFile file("m8_engine_micro", smoke);
  file.field("workload", "edge_checker k=5 on circulant C_n(1..4)");
  file.rows("sizes", rows, [](lab::JsonWriter& w, const SizeRow& r) {
    w.field("n", r.n).field("edges", r.edges).field("queries", r.queries);
    w.key("session")
        .begin_object()
        .field("cold_ms_per_query", r.cold_ms_per_query)
        .field("cached_ms_per_query", r.cached_ms_per_query)
        .field("speedup", r.session_speedup)
        .end_object();
    w.field("sequential_seconds", r.sequential_s);
    w.key("batch").begin_array();
    for (const ThreadRow& t : r.batch) {
      w.begin_object().field("threads", t.threads);
      if (bench::timed(t.threads)) {
        w.field("seconds", t.seconds)
            .field("queries_per_sec", t.queries_per_sec)
            .field("speedup_vs_sequential", t.seconds > 0 ? r.sequential_s / t.seconds : 0.0);
      }
      w.end_object();
    }
    w.end_array();
  });
  return file.write(out_path, claims);
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m8_engine_micro", argc, argv, run);
}
