/// \file lab.cpp
/// \brief The lab_matrix workload: one shared-graph decycle_lab matrix at
/// --threads=4, checked byte for byte against a serial run.
///
/// The untimed-by-tracing run spawns decycle_lab and timestamps its
/// per-cell progress lines. The traced run then calls LabRunner::run_cell
/// per cell in-process, once with a 4-thread pool and once without, which
/// gives the lane speed-up and doubles as the serial reference.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "lab/json.hpp"
#include "lab/runner.hpp"
#include "lab/scenario.hpp"
#include "proc.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace lab = decycle::lab;

namespace {

/// Set-up measurements per run. Sample s builds every topology from a fixed
/// panel seed, the same in every run, so setup_s reads the build path's
/// speed rather than the luck of one draw.
constexpr std::uint64_t kSetupSamples = 9;

struct Matrix {
  std::vector<std::string> tokens;  ///< key=value scenario tokens
  lab::ScenarioSpec spec;
  std::vector<lab::ScenarioCell> cells;
};

Matrix make_matrix(const Options& options) {
  const unsigned n = options.smoke ? 2000 : 20000;
  const std::size_t trials = options.smoke ? 2 : std::max<std::size_t>(2, (16 * options.seconds + 5) / 10);
  Matrix m;
  m.tokens = {"family=gnm,planted,cycle",
              "k=4,5",
              "n=" + std::to_string(n),
              "eps=0.25",
              "algo=tester,threshold,edge_checker",
              "trials=" + std::to_string(trials),
              "reps=1",
              "seed=" + std::to_string(options.seed)};
  m.spec = lab::ScenarioSpec::parse_tokens(m.tokens);
  m.cells = m.spec.expand();
  return m;
}

/// The serial reference: every cell through a pool-less LabRunner. Cells
/// are independent, so they are spread over kParallelism threads, each
/// with its own serial runner; the bytes equal one serial run's.
std::vector<lab::CellResult> serial_reference(const std::vector<lab::ScenarioCell>& cells) {
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0);
  // Threshold cells dominate; start them first so the threads finish together.
  std::stable_partition(order.begin(), order.end(),
                        [&cells](std::size_t i) { return cells[i].algo->name() == "threshold"; });
  std::vector<lab::CellResult> out(cells.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kParallelism; ++t) {
    threads.emplace_back([&] {
      const lab::LabRunner runner;
      for (std::size_t j = next++; j < order.size(); j = next++) {
        out[order[j]] = runner.run_cell(cells[order[j]]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

Result run_lab_matrix(const Options& options) {
  const Matrix matrix = make_matrix(options);
  const std::vector<lab::ScenarioCell>& cells = matrix.cells;
  Result result;
  Tracer tracer(1);
  Tracer::Buffer& buf = tracer.buffer(0);

  // Set-up: build every distinct topology of the matrix, as run_cell does.
  std::map<std::string, const lab::ScenarioCell*> topologies;
  for (const lab::ScenarioCell& cell : cells) {
    topologies.emplace(cell.family + "/" + std::to_string(cell.k) + "/" + std::to_string(cell.n),
                       &cell);
  }
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  result.notes.push_back("vCPU warm-up " + lab::json_double(warm_up_cpus()) + " s");
  for (std::uint64_t s = 0; s < kSetupSamples; ++s) {
    const Clock::time_point start = Clock::now();
    for (const auto& [key, cell] : topologies) {
      const Clock::time_point b0 = Clock::now();
      decycle::util::Rng rng(decycle::util::hash_combine(0x5e7095ULL + s, cell->index));
      ScopedSpan span(buf, "graph.build", cell->index);
      (void)lab::build_topology(*cell, rng);
      build_ms.push_back(ms_between(b0, Clock::now()));
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  // Timed run: decycle_lab --threads=4, per-cell latency from the arrival
  // of its progress lines.
  const std::string out_path =
      options.work_dir + "/lab-seed" + std::to_string(options.seed) + ".jsonl";
  std::vector<std::string> argv = {options.bin_dir + "/decycle_lab"};
  for (const std::string& t : matrix.tokens) argv.push_back("--" + t);
  argv.push_back("--threads=" + std::to_string(kParallelism));
  argv.push_back("--progress");
  argv.push_back("--out=" + out_path);
  (void)warm_up_cpus();
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw BenchError("spawn", "pipe2() failed");
  std::vector<double> cell_ms;
  std::string progress;
  double wall_s = 0.0;
  std::string status;
  double peak_rss_mb = 0.0;
  {
    Child child(argv, -1, pipe_fds[1]);
    ::close(pipe_fds[1]);
    Clock::time_point last = child.spawned();
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(pipe_fds[0], chunk, sizeof(chunk));
      if (n <= 0) break;
      const Clock::time_point now = Clock::now();
      for (ssize_t i = 0; i < n; ++i) {
        progress.push_back(chunk[i]);
        if (chunk[i] == '\n' && progress.rfind("[", 0) == 0) {
          cell_ms.push_back(ms_between(last, now));
          last = now;
          progress.clear();
        } else if (chunk[i] == '\n') {
          result.notes.push_back("decycle_lab: " + progress);
          progress.clear();
        }
      }
    }
    ::close(pipe_fds[0]);
    status = child.wait(60.0);
    wall_s = ms_between(child.spawned(), Clock::now()) / 1e3;
    peak_rss_mb = static_cast<double>(child.peak_rss_kib()) / 1024.0;
  }
  const std::string output = read_file(out_path);

  std::uint64_t trials = 0;
  for (const lab::ScenarioCell& cell : cells) trials += cell.trials;
  result.attempted = trials;
  result.e2e("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  result.e2e("throughput_rps", static_cast<double>(cell_ms.size()) / wall_s, "1/s", cell_ms.size());
  result.e2e("trials_per_s", static_cast<double>(trials) / wall_s, "1/s", trials);
  result.e2e("latency_p50_ms", quantile(cell_ms, 0.50), "ms", cell_ms.size());
  result.e2e("latency_p99_ms", quantile(cell_ms, 0.99), "ms", cell_ms.size());
  result.e2e("peak_rss_mb", peak_rss_mb, "MB", 1);

  // Reference (serial), and in traced runs the per-cell timings.
  std::vector<double> pooled_ms(cells.size()), serial_ms(cells.size());
  std::vector<lab::CellResult> reference;
  decycle::engine::SessionStats pooled_sessions;
  if (options.trace) {
    (void)warm_up_cpus();
    std::vector<lab::CellResult> pooled_results;
    {
      // Scoped so the pooled runner's cached sessions are freed before the
      // serial pass builds its own.
      decycle::util::ThreadPool pool(kParallelism);
      lab::LabOptions pooled_options;
      pooled_options.pool = &pool;
      const lab::LabRunner pooled(pooled_options);
      for (const lab::ScenarioCell& cell : cells) {
        const Clock::time_point c0 = Clock::now();
        ScopedSpan span(buf, "lab.run_cell.pooled", cell.index);
        pooled_results.push_back(pooled.run_cell(cell));
        pooled_ms[cell.index] = ms_between(c0, Clock::now());
      }
      pooled_sessions = pooled.session_stats();
    }
    const lab::LabRunner serial;
    for (const lab::ScenarioCell& cell : cells) {
      const Clock::time_point c0 = Clock::now();
      ScopedSpan span(buf, "lab.run_cell.serial", cell.index);
      reference.push_back(serial.run_cell(cell));
      serial_ms[cell.index] = ms_between(c0, Clock::now());
    }
    if (lab::matrix_jsonl(matrix.spec, pooled_results, false) !=
        lab::matrix_jsonl(matrix.spec, reference, false)) {
      result.check_failed("in-process 4-lane run_cell results differ from the serial ones");
    }
  } else {
    reference = serial_reference(cells);
  }

  // Output checks.
  if (status != "exit 0") {
    result.check_failed("decycle_lab ended with " + status);
    result.failed = trials;
  } else if (output != lab::matrix_jsonl(matrix.spec, reference, false)) {
    result.check_failed("decycle_lab --threads=" + std::to_string(kParallelism) +
                        " output differs from the serial run");
    result.failed = trials;
  } else {
    for (const lab::CellResult& r : reference) {
      if (r.soundness_violation || r.truncated_trials > 0) {
        result.failed += r.trials;
        result.check_failed("cell '" + r.cell.key() + "' has a soundness violation or truncated trials");
      }
    }
  }
  result.notes.push_back("failed_frac " +
                         lab::json_double(static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted)) +
                         " (" + std::to_string(result.failed) + "/" + std::to_string(result.attempted) +
                         "), wall " + lab::json_double(wall_s) + " s over " +
                         std::to_string(cell_ms.size()) + " cells");
  if (!options.trace) return result;

  const std::string spans_path =
      options.work_dir + "/lab_matrix-seed" + std::to_string(options.seed) + ".spans.jsonl";
  tracer.write_jsonl(spans_path);
  result.notes.push_back("spans written to " + spans_path);

  const double pooled_total = std::accumulate(pooled_ms.begin(), pooled_ms.end(), 0.0);
  const double serial_total = std::accumulate(serial_ms.begin(), serial_ms.end(), 0.0);
  const double leases = static_cast<double>(pooled_sessions.hits + pooled_sessions.misses);
  result.layer("engine.session_hit_ratio",
               leases > 0 ? static_cast<double>(pooled_sessions.hits) / leases : 0.0, "ratio",
               static_cast<std::uint64_t>(leases));
  result.layer("engine.session_purges", static_cast<double>(pooled_sessions.purges), "count", 1);
  result.layer("engine.lane_speedup", serial_total / pooled_total, "x", cells.size());

  std::map<std::string, std::vector<double>> trial_ms;
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  for (const lab::CellResult& r : reference) {
    trial_ms[std::string(r.cell.algo->name())].push_back(serial_ms[r.cell.index] /
                                                         static_cast<double>(r.trials));
    rounds += r.rounds_total;
    messages += r.messages_total;
    bits += r.bits_total;
  }
  for (const char* algo : {"tester", "threshold", "edge_checker"}) {
    const std::vector<double>& v = trial_ms[algo];
    result.layer(std::string("core.") + algo + ".run_ms.p50", quantile(v, 0.50), "ms", v.size());
    result.layer(std::string("core.") + algo + ".run_ms.p99", quantile(v, 0.99), "ms", v.size());
  }
  const double trials_d = static_cast<double>(trials);
  result.layer("core.rounds_per_query", static_cast<double>(rounds) / trials_d, "count", trials);
  result.layer("core.messages_per_query", static_cast<double>(messages) / trials_d, "count", trials);
  result.layer("core.bits_per_query", static_cast<double>(bits) / trials_d, "count", trials);
  result.layer("congest.msgs_per_s", static_cast<double>(messages) / (serial_total / 1e3), "1/s", trials);
  result.layer("graph.build_ms", mean(build_ms), "ms", build_ms.size());
  result.layer("lab.run_cell_ms", pooled_total / static_cast<double>(cells.size()), "ms", cells.size());
  result.layer("lab.trace_overhead_frac", (pooled_total / 1e3 - wall_s) / wall_s, "ratio", 1);
  return result;
}

}  // namespace perfbench
