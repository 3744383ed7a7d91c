/// \file main.cpp
/// \brief perfbench_run: runs one benchmark workload and prints its
/// metrics. Normally started through perfbench/run.py, which builds it.
///
///   perfbench_run --workload serve_mixed --seed 3 --seconds 10 --trace 0
///       --bin-dir DIR --work-dir DIR [--source-id ID] [--smoke]
///
/// Output: a machine block line, one line per metric (name, value, unit,
/// sample count), notes, and as the last line the result object
/// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
/// end-to-end metrics, --trace 1 the per-layer ones.
///
/// Exit codes: 0 all output checks passed; 1 an output check failed (the
/// result line is still printed, with "correct": false); 2 a refusal or
/// set-up error (typed, no result line); 3 an unexpected error.
#include <sched.h>

#include <charconv>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// \p measured in declaration order; a declared metric the workload did
/// not measure reads 0 with 0 samples.
template <std::size_t N>
std::vector<Metric> declared(const std::vector<Metric>& measured,
                             const std::pair<std::string_view, std::string_view> (&table)[N]) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : table) {
    Metric m{std::string(name), 0.0, std::string(unit), 0};
    for (const Metric& got : measured) {
      if (got.name != name) continue;
      if (got.unit != unit) {
        throw BenchError("internal", "metric " + got.name + " measured in " + got.unit +
                                         ", declared in " + std::string(unit));
      }
      m = got;
    }
    out.push_back(std::move(m));
  }
  for (const Metric& got : measured) {
    bool known = false;
    for (const auto& entry : table) known = known || entry.first == got.name;
    if (!known) throw BenchError("internal", "metric " + got.name + " is not declared");
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw BenchError("usage", "unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    if (arg == "smoke") {
      o.smoke = true;
    } else if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      kv[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[arg] = argv[++i];
    } else {
      throw BenchError("usage", "--" + arg + " needs a value");
    }
  }
  const auto take = [&kv](const std::string& key, const std::string& fallback) {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  const auto to_u64 = [](const std::string& key, const std::string& v) {
    std::uint64_t out = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || ptr != v.data() + v.size()) {
      throw BenchError("usage", "--" + key + " must be a whole number, got '" + v + "'");
    }
    return out;
  };
  o.workload = take("workload", "");
  o.seed = to_u64("seed", take("seed", "1"));
  o.seconds = static_cast<unsigned>(to_u64("seconds", take("seconds", "10")));
  const std::string trace = take("trace", "0");
  if (trace != "0" && trace != "1") throw BenchError("usage", "--trace must be 0 or 1");
  o.trace = trace == "1";
  o.bin_dir = take("bin-dir", "");
  o.work_dir = take("work-dir", "");
  o.source_id = take("source-id", "unknown");
  if (!kv.empty()) throw BenchError("usage", "unknown flag --" + kv.begin()->first);
  if (o.seconds < 1 || o.seconds > 60) throw BenchError("usage", "--seconds must be in 1..60");
  if (o.bin_dir.empty() || o.work_dir.empty()) {
    throw BenchError("usage", "--bin-dir and --work-dir are required");
  }
  return o;
}

int run(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  const std::map<std::string, std::function<Result(const Options&)>> workloads = {
      {"serve_mixed", run_serve_mixed},
      {"serve_reads", run_serve_reads},
      {"lab_matrix", run_lab_matrix},
  };
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) {
    throw BenchError("usage", "unknown --workload '" + options.workload +
                                  "'; known: lab_matrix, serve_mixed, serve_reads");
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    throw BenchError("not_release_build",
                     "perfbench measures Release builds only; this one is '" + build_type + "'");
  }
  const unsigned threads = hardware_threads();
  if (threads < kParallelism) {
    throw BenchError("insufficient_cores",
                     options.workload + " uses " + std::to_string(kParallelism) +
                         " connections or lanes, but this machine has " + std::to_string(threads) +
                         " hardware threads");
  }
  std::filesystem::create_directories(options.work_dir);

  std::cout << "{\"machine\":{\"hardware_threads\":" << threads << ",\"compiler\":\""
            << json_escape(__VERSION__) << "\",\"build_type\":\"" << build_type
            << "\",\"git_sha\":\"" << json_escape(options.source_id) << "\"},\"workload\":\""
            << options.workload << "\",\"seed\":" << options.seed
            << ",\"seconds\":" << options.seconds << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"smoke\":" << (options.smoke ? "true" : "false") << "}\n";

  const Result result = workload->second(options);
  const std::vector<Metric> metrics =
      options.trace ? declared(result.per_layer, kLayerMetrics)
                    : declared(result.end_to_end, kEndToEndMetrics);
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << " samples=" << m.samples << "\n";
  }
  for (const std::string& note : result.notes) std::cout << "note " << note << "\n";
  std::cout << "{\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
              << number(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const perfbench::BenchError& e) {
    std::cerr << "perfbench: error " << e.kind() << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: unexpected error: " << e.what() << "\n";
    return 3;
  }
}
