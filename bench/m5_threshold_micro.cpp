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
/// Writes BENCH_threshold.json (override with --out=PATH; bench_common.hpp);
/// --smoke shrinks trial counts and sizes for CI. Exit code 1 if either
/// algorithm ever rejects a provably Ck-free instance (soundness is
/// asserted, not hoped).
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/detector.hpp"
#include "engine/lanes.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

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
  AlgoResult tester;     ///< filled by run()
  AlgoResult threshold;  ///< filled by run()
};

/// Runs \p w's trials through \p detector on one reused simulator, with the
/// same per-trial seeds for every detector.
AlgoResult run_detector(std::string_view detector, const Workload& w,
                        const graph::IdAssignment& ids) {
  const core::Detector& d = core::DetectorRegistry::builtin().require(detector);
  AlgoResult out;
  congest::Simulator sim(w.graph, ids);
  const util::WallTimer timer;
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
  out.seconds = timer.seconds();
  return out;
}

double per_trial(std::uint64_t total, std::size_t trials) {
  return trials ? static_cast<double>(total) / static_cast<double>(trials) : 0.0;
}

double time_speedup(const Workload& w) {
  return w.threshold.seconds > 0 ? w.tester.seconds / w.threshold.seconds : 0.0;
}

double round_reduction(const Workload& w) {
  return w.threshold.rounds_total > 0 ? static_cast<double>(w.tester.rounds_total) /
                                            static_cast<double>(w.threshold.rounds_total)
                                      : 0.0;
}

/// One algorithm's half of a workload row.
void write_algo(lab::JsonWriter& w, const char* mode, const AlgoResult& r, std::size_t trials) {
  w.begin_object()
      .field("mode", mode)
      .field("seconds", r.seconds)
      .field("detection_rate", per_trial(r.detections, trials))
      .field("rounds_mean", per_trial(r.rounds_total, trials))
      .field("messages_total", r.messages_total)
      .field("bits_total", r.bits_total)
      .field("max_link_bits", r.max_link_bits)
      .end_object();
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

  harness::ClaimSet claims("m5_threshold_micro");
  for (Workload& w : workloads) {
    const graph::IdAssignment ids = graph::IdAssignment::identity(w.graph.num_vertices());
    w.tester = run_detector("tester", w, ids);
    w.threshold = run_detector("threshold", w, ids);
    if (w.ck_free) {
      claims.check(std::string(w.name) + ": no rejection on a Ck-free workload",
                   w.tester.detections == 0 && w.threshold.detections == 0);
    }
    std::printf("%-14s tester %.3fs (det %.2f)  threshold %.3fs (det %.2f)  speedup %.2fx  "
                "rounds %.0fx\n",
                w.name, w.tester.seconds, per_trial(w.tester.detections, w.trials),
                w.threshold.seconds, per_trial(w.threshold.detections, w.trials),
                time_speedup(w), round_reduction(w));
  }

  bench::BenchFile file("m5_threshold_micro", smoke);
  file.field("baseline", "FO17 amplified tester (eps=0.125)");
  file.field("contender", "threshold family (budget=16, track=8, 1 sweep)");
  file.rows("workloads", workloads, [](lab::JsonWriter& w, const Workload& wl) {
    w.field("name", wl.name)
        .field("vertices", wl.graph.num_vertices())
        .field("edges", wl.graph.num_edges())
        .field("k", wl.k)
        .field("trials", wl.trials);
    w.key("tester");
    write_algo(w, "fo17_tester", wl.tester, wl.trials);
    w.key("threshold");
    write_algo(w, "threshold_sweep", wl.threshold, wl.trials);
    w.field("time_speedup", time_speedup(wl)).field("round_reduction", round_reduction(wl));
  });
  return file.write(out_path, claims);
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m5_threshold_micro", argc, argv, run);
}
