/// \file common.hpp
/// \brief Shared pieces of perfbench_run: options, the result a
/// workload fills in, order statistics, and the in-memory span tracer the
/// traced runs record around calls into the library's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Connections, lanes and daemon workers every full-size workload uses.
inline constexpr unsigned kParallelism = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;  ///< scales the workload so its timed phase lasts about this long
  bool trace = false;
  bool smoke = false;     ///< tiny sizes for the benchmark's own self-test
  std::string bin_dir;    ///< where decycle_serve / decycle_lab live
  std::string work_dir;   ///< scratch space for sockets, logs and span files
  std::string source_id;  ///< git sha or source hash of the checkout
};

/// A refusal or setup failure: printed as `perfbench: error <kind>: <detail>`
/// and turned into a nonzero exit with no result line.
class BenchError : public std::runtime_error {
 public:
  BenchError(std::string kind, const std::string& detail)
      : std::runtime_error(detail), kind_(std::move(kind)) {}
  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }

 private:
  std::string kind_;
};

/// The metrics BENCHMARK.json declares, with their units. Every traced run
/// prints every per-layer metric; one that does not apply to the workload
/// (a serve layer on lab_matrix, lanes on the serve workloads) reads 0 with
/// 0 samples.
inline constexpr std::pair<std::string_view, std::string_view> kEndToEndMetrics[] = {
    {"setup_s", "s"},           {"throughput_rps", "1/s"}, {"trials_per_s", "1/s"},
    {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},  {"peak_rss_mb", "MB"},
};
inline constexpr std::pair<std::string_view, std::string_view> kLayerMetrics[] = {
    {"serve.parse_us", "us"},
    {"serve.format_us", "us"},
    {"serve.transport_ms", "ms"},
    {"serve.verdict_hit_ratio", "ratio"},
    {"serve.server_p50_ms", "ms"},
    {"serve.server_p99_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.queue_peak_depth", "count"},
    {"serve.shed_frac", "ratio"},
    {"serve.p99_top_share", "ratio"},
    {"engine.lease_build_ms", "ms"},
    {"engine.session_hit_ratio", "ratio"},
    {"engine.session_purges", "count"},
    {"engine.lane_speedup", "x"},
    {"incremental.checkpoint_ms", "ms"},
    {"incremental.apply_us", "us"},
    {"core.tester.run_ms.p50", "ms"},
    {"core.tester.run_ms.p99", "ms"},
    {"core.threshold.run_ms.p50", "ms"},
    {"core.threshold.run_ms.p99", "ms"},
    {"core.edge_checker.run_ms.p50", "ms"},
    {"core.edge_checker.run_ms.p99", "ms"},
    {"core.rounds_per_query", "count"},
    {"core.messages_per_query", "count"},
    {"core.bits_per_query", "count"},
    {"congest.msgs_per_s", "1/s"},
    {"graph.build_ms", "ms"},
    {"lab.run_cell_ms", "ms"},
    {"lab.trace_overhead_frac", "ratio"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one workload run reports. `end_to_end` is printed with --trace 0,
/// `per_layer` with --trace 1; `notes` are human-readable lines printed
/// before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit, std::uint64_t samples) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit, std::uint64_t samples) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check_failed(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Spins kParallelism threads until a parallel burst runs as fast as a
/// serial one, at most \p max_seconds. On a virtual machine whose vCPUs
/// were idle, parallel work first runs several times slower until the
/// host wakes them all; warming up before each timed phase keeps that
/// ramp out of the measurement. Returns the seconds spent.
double warm_up_cpus(double max_seconds = 5.0);

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// One traced interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same buffer (-1 at top level).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t request;
};

/// Per-thread span buffers kept in memory and written out once at the end.
/// Each buffer is filled by exactly one thread; spans nest strictly within
/// a buffer, so a span's self time is its duration minus its direct
/// children's durations.
class Tracer {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
  };

  explicit Tracer(std::size_t threads) : buffers_(threads) {}

  [[nodiscard]] Buffer& buffer(std::size_t thread) { return buffers_.at(thread); }

  /// Self times in milliseconds, grouped by span name.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_times_ms() const;

  /// Self time per (request, span name), for attributing slow requests.
  [[nodiscard]] std::map<std::uint64_t, std::map<std::string, double>> self_by_request() const;

  /// One JSON object per span: name, start/end (ns since the first span),
  /// parent and request.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Buffer> buffers_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer& buffer, const char* name, std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Renames the open span once the call's outcome is known (a lease that
  /// had to build a session, say).
  void rename(const char* name);

 private:
  Tracer::Buffer& buffer_;
  std::int32_t index_;
};

}  // namespace perfbench
