/// \file m3_tester_micro.cpp
/// \brief Micro-benchmark M3 — end-to-end tester throughput
/// (google-benchmark).
///
/// Wall-clock cost of full tester executions as the network grows (sparse
/// random graphs, fixed repetitions), plus repetition-count scaling at fixed
/// n and the cost of a traced run (observability overhead).
#include <benchmark/benchmark.h>

#include "core/detector.hpp"
#include "core/trace.hpp"
#include "graph/generators.hpp"

namespace {

using namespace decycle;

const core::Detector& tester() { return core::DetectorRegistry::builtin().require("tester"); }

void BM_TesterSparseGrowth(benchmark::State& state) {
  const auto n = static_cast<graph::Vertex>(state.range(0));
  util::Rng rng(5);
  const graph::Graph g = graph::random_connected(n, n + n / 4, rng);
  const graph::IdAssignment ids = graph::IdAssignment::identity(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::DetectorOptions opt;
    opt.k = 5;
    opt.repetitions = 4;
    opt.seed = ++seed;
    benchmark::DoNotOptimize(tester().run_fresh(g, ids, opt).accepted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_TesterSparseGrowth)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_TesterRepetitionScaling(benchmark::State& state) {
  const auto reps = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  const graph::Graph g = graph::random_connected(512, 640, rng);
  const graph::IdAssignment ids = graph::IdAssignment::identity(512);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::DetectorOptions opt;
    opt.k = 5;
    opt.repetitions = reps;
    opt.seed = ++seed;
    benchmark::DoNotOptimize(tester().run_fresh(g, ids, opt).accepted);
  }
  state.counters["reps"] = static_cast<double>(reps);
}
BENCHMARK(BM_TesterRepetitionScaling)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_TesterKScaling(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const graph::Graph g = graph::complete_bipartite(12, 12);
  const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::DetectorOptions opt;
    opt.k = k;
    opt.repetitions = 4;
    opt.seed = ++seed;
    benchmark::DoNotOptimize(tester().run_fresh(g, ids, opt).accepted);
  }
  state.counters["k"] = static_cast<double>(k);
}
BENCHMARK(BM_TesterKScaling)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_TracedDetection(benchmark::State& state) {
  // Observability overhead: the same check with and without a sink.
  const bool traced = state.range(0) != 0;
  const graph::Graph g = graph::complete_bipartite(10, 10);
  const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
  for (auto _ : state) {
    core::TraceSink sink;
    core::DetectorOptions opt;
    opt.k = 8;
    opt.edge = g.edge(0);
    if (traced) opt.trace = &sink;
    benchmark::DoNotOptimize(
        core::DetectorRegistry::builtin().require("edge_checker").run_fresh(g, ids, opt).accepted);
  }
  state.counters["traced"] = traced ? 1 : 0;
}
BENCHMARK(BM_TracedDetection)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
