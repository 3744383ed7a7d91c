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
///
/// Writes BENCH_incremental.json (override with --out=PATH) with the machine
/// it ran on (hardware threads, build type, git revision); --smoke shrinks
/// to {10k, 50k} for CI.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/lanes.hpp"
#include "incremental/incremental.hpp"
#include "incremental/session.hpp"
#include "incremental/stream.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace decycle;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool check(bool okay, const char* what) {
  if (!okay) std::fprintf(stderr, "FAILED: %s\n", what);
  return okay;
}

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
  bool ok = true;

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

    // --- Single-thread hot path: raw union-find verdicts. ---
    incremental::StreamSpec spec;
    spec.n = n;
    spec.inserts = 2 * static_cast<std::size_t>(n);
    spec.seed = 9'100 + si;
    const incremental::InsertStream stream = incremental::generate_stream(spec);
    row.stream_inserts = stream.inserts.size();
    {
      fc.reset(n);
      const auto t0 = std::chrono::steady_clock::now();
      std::uint64_t closures = 0;
      for (const auto& [u, v] : stream.inserts) closures += fc.insert_fast(u, v) ? 1 : 0;
      row.single_s = seconds_since(t0);
      row.closures = closures;
      row.single_inserts_per_sec = rate(row.stream_inserts, row.single_s);
      ok &= check(closures == fc.closures(), "detector closure counter disagrees with sweep");
    }

    // --- Batch sizes through the session (epoch/purge amortization). ---
    for (const std::size_t batch : batch_sizes) {
      engine::DetectionEngine engine;
      incremental::IncrementalSession session(engine, "m9", n);
      (void)session.checkpoint();  // pin exists: every apply bumps + purges
      std::uint64_t closures = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < stream.inserts.size(); i += batch) {
        const std::size_t len = std::min(batch, stream.inserts.size() - i);
        closures += session.apply({stream.inserts.data() + i, len}).closures;
      }
      BatchRow br;
      br.batch = batch;
      br.seconds = seconds_since(t0);
      br.inserts_per_sec = rate(row.stream_inserts, br.seconds);
      row.batches.push_back(br);
      ok &= check(closures == row.closures, "session closures disagree with the raw sweep");
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
      const auto t0 = std::chrono::steady_clock::now();
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
      tr.seconds = seconds_since(t0);
      tr.inserts_per_sec = rate(kLanes * row.lane_inserts, tr.seconds);
      row.lanes.push_back(tr);
      std::uint64_t total = 0;
      for (const std::uint64_t c : slot_closures) total += c;
      if (!have_base) {
        base_closures = total;
        have_base = true;
      }
      ok &= check(total == base_closures, "threaded lane totals disagree with single-thread");
    }

    rows.push_back(row);
    std::printf("n=%-9u single %10.0f ins/s  closures=%llu\n", row.n,
                row.single_inserts_per_sec, static_cast<unsigned long long>(row.closures));
    for (const BatchRow& br : row.batches) {
      std::printf("  batch=%-6zu %8.4fs  %10.0f ins/s\n", br.batch, br.seconds,
                  br.inserts_per_sec);
    }
    for (const ThreadRow& tr : row.lanes) {
      std::printf("  lanes=8 threads=%u  %8.4fs  %10.0f ins/s aggregate\n", tr.threads,
                  tr.seconds, tr.inserts_per_sec);
    }
  }

  // The headline acceptance number: >= 2M raw inserts/sec single-thread at
  // n=1M (full mode only — smoke sizes differ).
  if (!smoke) {
    for (const SizeRow& row : rows) {
      if (row.n == 1'000'000) {
        ok &= check(row.single_inserts_per_sec >= 2e6,
                    "single-thread insert rate under 2M/s at n=1M");
      }
    }
  }

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"m9_incremental_micro\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"hardware_threads\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"git_sha\": \"%s\",\n",
                 std::thread::hardware_concurrency(), DECYCLE_BENCH_BUILD_TYPE,
                 DECYCLE_BENCH_GIT_SHA);
    std::fprintf(f, "  \"workload\": \"seeded duplicate-free random streams, 2n inserts\",\n");
    std::fprintf(f, "  \"sizes\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SizeRow& r = rows[i];
      std::fprintf(f,
                   "    {\"n\": %u, \"stream_inserts\": %zu, \"closures\": %llu,\n"
                   "     \"single\": {\"seconds\": %.6f, \"inserts_per_sec\": %.0f},\n"
                   "     \"batch\": [",
                   r.n, r.stream_inserts, static_cast<unsigned long long>(r.closures),
                   r.single_s, r.single_inserts_per_sec);
      for (std::size_t j = 0; j < r.batches.size(); ++j) {
        const BatchRow& b = r.batches[j];
        std::fprintf(f, "%s\n       {\"batch\": %zu, \"seconds\": %.6f, \"inserts_per_sec\": %.0f}",
                     j == 0 ? "" : ",", b.batch, b.seconds, b.inserts_per_sec);
      }
      std::fprintf(f, "\n     ],\n     \"lane_n\": %u, \"lane_inserts\": %zu, \"lanes\": [",
                   r.lane_n, r.lane_inserts);
      for (std::size_t j = 0; j < r.lanes.size(); ++j) {
        const ThreadRow& t = r.lanes[j];
        std::fprintf(
            f, "%s\n       {\"threads\": %u, \"seconds\": %.6f, \"inserts_per_sec\": %.0f}",
            j == 0 ? "" : ",", t.threads, t.seconds, t.inserts_per_sec);
      }
      std::fprintf(f, "\n     ]}%s\n", i + 1 == rows.size() ? "" : ",");
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
  return decycle::util::run_main("m9_incremental_micro", argc, argv, run);
}
