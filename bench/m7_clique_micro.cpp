/// \file m7_clique_micro.cpp
/// \brief Micro-benchmark M7 — Congested-Clique h-cycle adaptivity: the
/// detector's cost as a function of how many h-cycles the input contains.
///
/// The CEVW result (arXiv 2408.15132) says clique h-cycle detection gets
/// CHEAPER the more cycles there are: a small random vertex sample already
/// induces a copy when copies abound, so the doubling-sample schedule exits
/// early and the dominant cost — shipping adjacency rows to the collector —
/// shrinks with the cycle count. This bench plants c vertex-disjoint
/// k-cycles into a fixed-n instance, sweeps c across orders of magnitude,
/// and records where the schedule stopped: phases, sampled vertices/edges,
/// rounds, messages, bits, and single-threaded wall time.
///
/// Cross-checks (exit 1 on failure):
///   * every planted instance is rejected (the detector is exact drop-free);
///   * repeated runs agree with the first on every decision and statistic
///     (the determinism contract);
///   * adaptivity is real: the cycle-richest instance samples no more
///     vertices than the cycle-poorest, and strictly fewer than n.
///
/// Writes BENCH_clique.json (override with --out=PATH; bench_common.hpp);
/// --smoke shrinks n and the sweep for CI.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace decycle;

struct SweepRow {
  std::size_t cycles = 0;
  graph::Vertex n = 0;
  std::size_t edges = 0;
  std::uint64_t phases = 0;
  std::uint64_t sampled_vertices = 0;
  std::uint64_t sampled_edges = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t rounds_saved = 0;
  bool early_exit = false;
  double seconds = 0;  ///< best of the repetitions
};

const core::Detector& kDetector = core::DetectorRegistry::builtin().require("clique_hcycle");

/// The named adaptivity counter of \p v.
std::uint64_t counter(const core::Verdict& v, std::string_view name) {
  return core::counter_value(kDetector, v.counters, name);
}

}  // namespace

int run(const util::Args& args) {
  const bool smoke = args.get_bool("smoke", false);
  const std::string out_path = args.get_string("out", "BENCH_clique.json");
  args.reject_unknown();
  harness::ClaimSet claims("m7_clique_micro");

  constexpr unsigned kK = 5;
  const graph::Vertex target_n = smoke ? 512 : 4096;
  const std::vector<std::size_t> cycle_counts =
      smoke ? std::vector<std::size_t>{1, 8, 64}
            : std::vector<std::size_t>{1, 8, 64, 256, 512};
  const int reps = smoke ? 1 : 2;

  std::vector<SweepRow> rows;
  for (const std::size_t c : cycle_counts) {
    // Fixed n across the sweep: leaf padding dilutes the planted cycles so
    // only the cycle DENSITY varies, never the graph size the final phase
    // would have to collect.
    util::Rng rng(0x5EED0000 + static_cast<std::uint64_t>(c));
    graph::PlantedOptions popt;
    popt.k = kK;
    popt.num_cycles = c;
    popt.padding_leaves = target_n - c * kK;
    const graph::FarInstance inst = graph::planted_cycles_instance(popt, rng);
    const graph::Vertex n = inst.graph.num_vertices();
    const graph::IdAssignment ids = graph::IdAssignment::identity(n);

    SweepRow row;
    row.cycles = c;
    row.n = n;
    row.edges = inst.graph.num_edges();

    core::Verdict base;
    core::DetectorOptions opt;
    opt.k = kK;
    opt.seed = 0xFA17;
    for (int rep = 0; rep < reps; ++rep) {
      const util::WallTimer timer;
      const core::Verdict v = kDetector.run_fresh(inst.graph, ids, opt);
      const double dt = timer.seconds();
      if (rep == 0 || dt < row.seconds) row.seconds = dt;
      if (rep == 0) {
        base = v;
        row.phases = counter(v, "phases_total");
        row.sampled_vertices = counter(v, "sampled_vertices_total");
        row.sampled_edges = counter(v, "sampled_edges_total");
        row.rounds = v.stats.rounds_executed;
        row.messages = v.stats.total_messages;
        row.bits = v.stats.total_bits;
        row.rounds_saved = counter(v, "rounds_saved_total");
        row.early_exit = counter(v, "early_exit_trials") != 0;
      }
      const std::string at = " (c=" + std::to_string(c) + ")";
      claims.check("planted instance is rejected" + at, !v.accepted);
      claims.check("repeated run agrees with the first run" + at,
                   v.accepted == base.accepted && v.witness == base.witness &&
                       v.counters == base.counters &&
                       v.stats.rounds_executed == base.stats.rounds_executed &&
                       v.stats.total_messages == base.stats.total_messages &&
                       v.stats.total_bits == base.stats.total_bits);
    }
    std::printf("clique_hcycle c=%-4zu n=%-5u  %8.4fs  phases=%llu "
                "sampled=%llu rounds=%llu saved=%llu\n",
                c, n, row.seconds, static_cast<unsigned long long>(row.phases),
                static_cast<unsigned long long>(row.sampled_vertices),
                static_cast<unsigned long long>(row.rounds),
                static_cast<unsigned long long>(row.rounds_saved));
    rows.push_back(row);
  }

  // The adaptivity claim, checked on the recorded sweep: the cycle-richest
  // instance must exit before the full-vertex phase and sample no more than
  // the cycle-poorest one.
  if (rows.size() >= 2) {
    const SweepRow& poor = rows.front();
    const SweepRow& rich = rows.back();
    claims.check("sampled vertices do not grow with cycle count",
                 rich.sampled_vertices <= poor.sampled_vertices);
    claims.check("cycle-rich instance exits early",
                 rich.early_exit && rich.sampled_vertices < rich.n);
    claims.check("traffic does not grow with cycle count", rich.bits <= poor.bits);
  }

  bench::BenchFile file("m7_clique_micro", smoke);
  file.field("k", kK);
  file.rows("sweep", rows, [](lab::JsonWriter& w, const SweepRow& r) {
    w.field("planted_cycles", r.cycles)
        .field("n", r.n)
        .field("edges", r.edges)
        .field("phases", r.phases)
        .field("sampled_vertices", r.sampled_vertices)
        .field("sampled_edges", r.sampled_edges)
        .field("rounds", r.rounds)
        .field("messages", r.messages)
        .field("bits", r.bits)
        .field("rounds_saved", r.rounds_saved)
        .field("early_exit", r.early_exit)
        .field("seconds", r.seconds);
  });
  return file.write(out_path, claims);
}

int main(int argc, char** argv) {
  return decycle::util::run_main("m7_clique_micro", argc, argv, run);
}
