/// \file m5_threshold_micro.cpp
/// \brief Micro-benchmark M5 — threshold family vs FO17 tester head-to-head.
///
/// Both algorithms answer the same question ("is the instance Ck-free?") on
/// the same instances with the same per-trial seeds, so the comparison is
/// apples-to-apples: wall-clock, rounds, messages, bits, max link load, and
/// detection rate side by side. Three instance shapes:
///
///   * planted_far   — the completeness workload (certified ε-far): the
///     amplified tester needs ⌈e²ln3/ε⌉ repetitions, the threshold family
///     one budgeted sweep;
///   * ckfree_sound  — a high-girth soundness workload: both must accept
///     every trial, the costs show the overhead of proving it;
///   * sparse_gnm    — G(n, 2n) at 4k nodes: the scale shape, where the
///     threshold family's single sweep trades per-round congestion
///     (bounded by budget × track) for a 60-70× round reduction.
///
/// Writes BENCH_threshold.json (override with --out=PATH) with the machine
/// it ran on (hardware threads, build type, git revision); --smoke shrinks
/// trial counts and sizes for CI. Exit code 1 if the threshold family ever
/// rejects a provably Ck-free instance (soundness is asserted, not hoped).
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "engine/lanes.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace decycle;

struct AlgoResult {
  double seconds = 0.0;
  std::uint64_t detections = 0;
  std::uint64_t rounds_total = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t bits_total = 0;
  std::uint64_t max_link_bits = 0;
};

struct Workload {
  const char* name;
  bool ck_free = false;  ///< soundness workload: any detection is a failure
  graph::Graph graph;
  unsigned k = 5;
  std::size_t trials = 0;
};

/// Runs \p w's trials through \p detector on one reused simulator, with the
/// same per-trial seeds for every detector.
AlgoResult run_detector(std::string_view detector, const Workload& w,
                        const graph::IdAssignment& ids) {
  const core::Detector& d = core::DetectorRegistry::builtin().require(detector);
  AlgoResult out;
  congest::Simulator sim(w.graph, ids);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < w.trials; ++t) {
    core::DetectorOptions opt;
    opt.k = w.k;
    opt.epsilon = 0.125;  // read by the tester only
    opt.seed = engine::trial_seed(404, t);
    const core::Verdict v = d.run(sim, opt);
    out.detections += v.accepted ? 0 : 1;
    out.rounds_total += v.stats.rounds_executed;
    out.messages_total += v.stats.total_messages;
    out.bits_total += v.stats.total_bits;
    out.max_link_bits = std::max(out.max_link_bits, v.stats.max_link_bits);
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

std::string algo_json(const char* mode, const AlgoResult& r, std::size_t trials) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"mode\": \"%s\", \"seconds\": %.6f, \"detection_rate\": %.4f, "
                "\"rounds_mean\": %.2f, \"messages_total\": %llu, \"bits_total\": %llu, "
                "\"max_link_bits\": %llu}",
                mode, r.seconds,
                trials ? static_cast<double>(r.detections) / static_cast<double>(trials) : 0.0,
                trials ? static_cast<double>(r.rounds_total) / static_cast<double>(trials) : 0.0,
                static_cast<unsigned long long>(r.messages_total),
                static_cast<unsigned long long>(r.bits_total),
                static_cast<unsigned long long>(r.max_link_bits));
  return line;
}

}  // namespace

int run(const decycle::util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_threshold.json");
  args.reject_unknown();

  util::Rng rng(0xBE5);
  std::vector<Workload> workloads;
  {
    graph::PlantedOptions popt;
    popt.k = 5;
    popt.num_cycles = smoke ? 8 : 40;
    Workload w;
    w.name = "planted_far";
    w.graph = graph::planted_cycles_instance(popt, rng).graph;
    w.trials = smoke ? 8 : 64;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "ckfree_sound";
    w.ck_free = true;
    w.graph = graph::ck_free_instance(graph::CkFreeFamily::kHighGirth, 5,
                                      smoke ? 48 : 200, rng);
    w.trials = smoke ? 8 : 64;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "sparse_gnm";
    const graph::Vertex n = smoke ? 512 : 4096;
    w.graph = graph::erdos_renyi_gnm(n, 2 * static_cast<std::size_t>(n), rng);
    w.trials = smoke ? 2 : 8;
    workloads.push_back(std::move(w));
  }

  std::string doc = "{\n  \"bench\": \"m5_threshold_micro\",\n  \"smoke\": ";
  doc += smoke ? "true" : "false";
  char machine[256];
  std::snprintf(machine, sizeof(machine),
                ",\n  \"hardware_threads\": %u,\n  \"build_type\": \"%s\",\n"
                "  \"git_sha\": \"%s\"",
                std::thread::hardware_concurrency(), DECYCLE_BENCH_BUILD_TYPE,
                DECYCLE_BENCH_GIT_SHA);
  doc += machine;
  doc += ",\n  \"baseline\": \"FO17 amplified tester (eps=0.125)\",\n"
         "  \"contender\": \"threshold family (budget=16, track=8, 1 sweep)\",\n"
         "  \"workloads\": [\n";

  bool ok = true;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const graph::IdAssignment ids = graph::IdAssignment::identity(w.graph.num_vertices());
    const AlgoResult tester = run_detector("tester", w, ids);
    const AlgoResult thresh = run_detector("threshold", w, ids);
    if (w.ck_free && (tester.detections != 0 || thresh.detections != 0)) {
      std::fprintf(stderr, "FAIL: %s — rejection on a Ck-free workload\n", w.name);
      ok = false;
    }
    const double speedup = thresh.seconds > 0 ? tester.seconds / thresh.seconds : 0.0;
    const double round_cut =
        thresh.rounds_total > 0
            ? static_cast<double>(tester.rounds_total) / static_cast<double>(thresh.rounds_total)
            : 0.0;
    char head[384];
    std::snprintf(head, sizeof(head),
                  "    {\"name\": \"%s\", \"vertices\": %llu, \"edges\": %llu, \"k\": %u, "
                  "\"trials\": %llu,\n",
                  w.name, static_cast<unsigned long long>(w.graph.num_vertices()),
                  static_cast<unsigned long long>(w.graph.num_edges()), w.k,
                  static_cast<unsigned long long>(w.trials));
    doc += head;
    doc += "     \"tester\": " + algo_json("fo17_tester", tester, w.trials) + ",\n";
    doc += "     \"threshold\": " + algo_json("threshold_sweep", thresh, w.trials) + ",\n";
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  "     \"time_speedup\": %.3f, \"round_reduction\": %.1f}%s\n", speedup,
                  round_cut, i + 1 < workloads.size() ? "," : "");
    doc += tail;
    std::printf("%-14s tester %.3fs (det %.2f)  threshold %.3fs (det %.2f)  speedup %.2fx  "
                "rounds %.0fx\n",
                w.name, tester.seconds,
                static_cast<double>(tester.detections) / static_cast<double>(w.trials),
                thresh.seconds,
                static_cast<double>(thresh.detections) / static_cast<double>(w.trials), speedup,
                round_cut);
  }
  doc += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(doc.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m5_threshold_micro", argc, argv, run);
}
