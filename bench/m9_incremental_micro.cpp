/// \file m9_incremental_micro.cpp
/// \brief Micro-benchmark M9 — incremental cycle-detection throughput.
///
/// Gates the PR 9 incremental service on three axes, at n ∈ {10k, 100k, 1M}
/// on seeded duplicate-free random streams of 2n inserts:
///
///   * single_* — raw ForestConnectivity::insert_fast throughput (the
///     union-find hot path): the acceptance gate is >= 2M inserts/sec
///     single-thread at n=1M (full mode only);
///   * batch_* — the same stream through IncrementalSession::apply with a
///     live checkpoint, swept over batch sizes: every non-empty batch pays
///     one epoch bump + purge, so the sweep prices the epoch/purge
///     amortization; closure totals must equal the raw single-thread run
///     (same stream, same detector) — any disagreement exits 1;
///   * lanes_* — 8 independent per-lane streams with per-lane detectors
///     dispatched via engine::for_lanes across thread counts {1, 4, 8};
///     per-lane closure/insert totals land in indexed slots and their sums
///     must be identical for every thread count — any disagreement exits 1.
///     A thread count above the machine's hardware threads still runs and
///     is cross-checked, but its timings are not reported.
///
/// Writes BENCH_incremental.json (override with --out=PATH;
/// bench_common.hpp); --smoke shrinks to {10k, 50k} for CI.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/lanes.hpp"
#include "incremental/incremental.hpp"
#include "incremental/session.hpp"
#include "incremental/stream.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace decycle;

double rate(std::size_t inserts, double seconds) {
  return seconds > 0 ? static_cast<double>(inserts) / seconds : 0.0;
}

struct BatchRow {
  std::size_t batch = 0;
  double seconds = 0;
  double inserts_per_sec = 0;
};

struct ThreadRow {
  unsigned threads = 0;
  double seconds = 0;
  double inserts_per_sec = 0;
};

struct SizeRow {
  graph::Vertex n = 0;
  std::size_t stream_inserts = 0;
  std::uint64_t closures = 0;     ///< of the single-thread stream
  double single_s = 0;            ///< raw insert_fast sweep
  double single_inserts_per_sec = 0;
  graph::Vertex lane_n = 0;
  std::size_t lane_inserts = 0;  ///< per lane
  std::vector<BatchRow> batches;
  std::vector<ThreadRow> lanes;
};

}  // namespace

int run(const util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_incremental.json");
  args.reject_unknown();
  harness::ClaimSet claims("m9_incremental_micro");

  const std::vector<graph::Vertex> sizes =
      smoke ? std::vector<graph::Vertex>{10'000, 50'000}
            : std::vector<graph::Vertex>{10'000, 100'000, 1'000'000};
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{1, 64, 1024}
            : std::vector<std::size_t>{1, 256, 16'384};
  const std::vector<unsigned> thread_counts = {1, 4, 8};
  constexpr std::size_t kLanes = 8;

  std::vector<SizeRow> rows;
  incremental::ForestConnectivity fc;  // reused across sizes: reset() steady state
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const graph::Vertex n = sizes[si];
    SizeRow row;
    row.n = n;
    const std::string at = "n=" + std::to_string(n);

    // --- Single-thread hot path: raw union-find verdicts. ---
    incremental::StreamSpec spec;
    spec.n = n;
    spec.inserts = 2 * static_cast<std::size_t>(n);
    spec.seed = 9'100 + si;
    const incremental::InsertStream stream = incremental::generate_stream(spec);
    row.stream_inserts = stream.inserts.size();
    {
      fc.reset(n);
      const util::WallTimer timer;
      std::uint64_t closures = 0;
      for (const auto& [u, v] : stream.inserts) closures += fc.insert_fast(u, v) ? 1 : 0;
      row.single_s = timer.seconds();
      row.closures = closures;
      row.single_inserts_per_sec = rate(row.stream_inserts, row.single_s);
      claims.check(at + ": detector closure counter agrees with the sweep",
                   closures == fc.closures());
    }

    // --- Batch sizes through the session (epoch/purge amortization). ---
    for (const std::size_t batch : batch_sizes) {
      engine::DetectionEngine engine;
      incremental::IncrementalSession session(engine, "m9", n);
      (void)session.checkpoint();  // pin exists: every apply bumps + purges
      std::uint64_t closures = 0;
      const util::WallTimer timer;
      for (std::size_t i = 0; i < stream.inserts.size(); i += batch) {
        const std::size_t len = std::min(batch, stream.inserts.size() - i);
        closures += session.apply({stream.inserts.data() + i, len}).closures;
      }
      BatchRow br;
      br.batch = batch;
      br.seconds = timer.seconds();
      br.inserts_per_sec = rate(row.stream_inserts, br.seconds);
      row.batches.push_back(br);
      claims.check(at + ": batch=" + std::to_string(batch) +
                       " session closures agree with the raw sweep",
                   closures == row.closures);
    }

    // --- Lane fan-out: independent streams, totals thread-count-invariant. ---
    row.lane_n = std::max<graph::Vertex>(1'024, n / kLanes);
    std::vector<incremental::InsertStream> lane_streams(kLanes);
    std::vector<incremental::ForestConnectivity> lane_detectors(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      incremental::StreamSpec ls;
      ls.n = row.lane_n;
      ls.inserts = 2 * static_cast<std::size_t>(row.lane_n);
      ls.seed = engine::trial_seed(9'200 + si, l);
      lane_streams[l] = incremental::generate_stream(ls);
      lane_detectors[l].reset(row.lane_n);
    }
    row.lane_inserts = lane_streams[0].inserts.size();
    std::uint64_t base_closures = 0;
    bool have_base = false;
    for (const unsigned t : thread_counts) {
      std::unique_ptr<util::ThreadPool> pool;
      if (t > 1) pool = std::make_unique<util::ThreadPool>(t);
      std::vector<std::uint64_t> slot_closures(kLanes, 0);  // per-unit indexed slots
      const util::WallTimer timer;
      engine::for_lanes(pool.get(), kLanes,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          for (std::size_t l = begin; l < end; ++l) {
                            incremental::ForestConnectivity& d = lane_detectors[l];
                            d.reset(row.lane_n);
                            std::uint64_t c = 0;
                            for (const auto& [u, v] : lane_streams[l].inserts) {
                              c += d.insert_fast(u, v) ? 1 : 0;
                            }
                            slot_closures[l] = c;
                          }
                        });
      ThreadRow tr;
      tr.threads = t;
      tr.seconds = timer.seconds();
      tr.inserts_per_sec = rate(kLanes * row.lane_inserts, tr.seconds);
      row.lanes.push_back(tr);
      std::uint64_t total = 0;
      for (const std::uint64_t c : slot_closures) total += c;
      if (!have_base) {
        base_closures = total;
        have_base = true;
      }
      claims.check(at + ": " + std::to_string(t) + "-thread lane totals agree with 1 thread",
                   total == base_closures);
    }

    rows.push_back(row);
    std::printf("n=%-9u single %10.0f ins/s  closures=%llu\n", row.n,
                row.single_inserts_per_sec, static_cast<unsigned long long>(row.closures));
    for (const BatchRow& br : row.batches) {
      std::printf("  batch=%-6zu %8.4fs  %10.0f ins/s\n", br.batch, br.seconds,
                  br.inserts_per_sec);
    }
    for (const ThreadRow& tr : row.lanes) {
      if (!bench::timed(tr.threads)) {
        std::printf("  lanes=8 threads=%u  (untimed: over %u hardware threads)\n", tr.threads,
                    bench::hardware_threads());
        continue;
      }
      std::printf("  lanes=8 threads=%u  %8.4fs  %10.0f ins/s aggregate\n", tr.threads,
                  tr.seconds, tr.inserts_per_sec);
    }
  }

  // The headline acceptance number: >= 2M raw inserts/sec single-thread at
  // n=1M (full mode only — smoke sizes differ).
  if (!smoke) {
    for (const SizeRow& row : rows) {
      if (row.n == 1'000'000) {
        claims.check("single-thread insert rate >= 2M/s at n=1M",
                     row.single_inserts_per_sec >= 2e6);
      }
    }
  }

  bench::BenchFile file("m9_incremental_micro", smoke);
  file.field("workload", "seeded duplicate-free random streams, 2n inserts");
  file.rows("sizes", rows, [](lab::JsonWriter& w, const SizeRow& r) {
    w.field("n", r.n).field("stream_inserts", r.stream_inserts).field("closures", r.closures);
    w.key("single")
        .begin_object()
        .field("seconds", r.single_s)
        .field("inserts_per_sec", r.single_inserts_per_sec)
        .end_object();
    w.key("batch").begin_array();
    for (const BatchRow& b : r.batches) {
      w.begin_object()
          .field("batch", b.batch)
          .field("seconds", b.seconds)
          .field("inserts_per_sec", b.inserts_per_sec)
          .end_object();
    }
    w.end_array();
    w.field("lane_n", r.lane_n).field("lane_inserts", r.lane_inserts);
    w.key("lanes").begin_array();
    for (const ThreadRow& t : r.lanes) {
      w.begin_object().field("threads", t.threads);
      if (bench::timed(t.threads)) {
        w.field("seconds", t.seconds).field("inserts_per_sec", t.inserts_per_sec);
      }
      w.end_object();
    }
    w.end_array();
  });
  return file.write(out_path, claims);
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m9_incremental_micro", argc, argv, run);
}
