#include "core/scan.hpp"

#include <atomic>
#include <mutex>

namespace decycle::core {

ScanResult exhaustive_ck_scan(const graph::Graph& g, const graph::IdAssignment& ids,
                              const ScanOptions& options) {
  ScanResult out;
  const std::uint64_t rounds_per_edge = options.detect.k / 2 + 1;

  const Detector& checker = DetectorRegistry::builtin().require("edge_checker");
  DetectorOptions base;
  base.k = options.detect.k;
  base.pruning = options.detect.pruning;
  base.fake_ids = options.detect.fake_ids;
  base.naive_cap = options.detect.naive_cap;
  base.trace = options.detect.trace;
  const auto check_edge = [&](congest::Simulator& sim, graph::EdgeId e) {
    DetectorOptions opt = base;
    opt.edge = g.edge(e);
    return checker.run(sim, opt);
  };

  if (options.pool == nullptr || options.stop_at_first) {
    congest::Simulator sim(g, ids);  // reset per edge (the reuse contract)
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const Verdict result = check_edge(sim, e);
      ++out.edges_checked;
      out.schedule_rounds += rounds_per_edge;
      out.total_messages += result.stats.total_messages;
      out.total_bits += result.stats.total_bits;
      if (!result.accepted) {
        if (!out.found) out.witness = result.witness;  // keep the first edge's witness
        out.found = true;
        if (options.stop_at_first) return out;
      }
    }
    return out;
  }

  // Parallel evaluation of independent executions (full sweep only, so the
  // reported counts do not depend on completion order).
  std::atomic<std::size_t> messages{0};
  std::atomic<std::uint64_t> bits{0};
  std::mutex witness_mutex;
  graph::EdgeId best_edge = graph::kInvalidEdge;
  std::vector<graph::Vertex> witness;
  options.pool->parallel_for(g.num_edges(), [&](std::size_t e) {
    congest::Simulator sim(g, ids);
    const Verdict result = check_edge(sim, static_cast<graph::EdgeId>(e));
    messages.fetch_add(result.stats.total_messages, std::memory_order_relaxed);
    bits.fetch_add(result.stats.total_bits, std::memory_order_relaxed);
    if (!result.accepted) {
      const std::lock_guard lock(witness_mutex);
      // Deterministic tie-break: keep the smallest edge id's witness.
      if (static_cast<graph::EdgeId>(e) < best_edge) {
        best_edge = static_cast<graph::EdgeId>(e);
        witness = result.witness;
      }
    }
  });
  out.edges_checked = g.num_edges();
  out.schedule_rounds = rounds_per_edge * g.num_edges();
  out.total_messages = messages.load();
  out.total_bits = bits.load();
  out.found = best_edge != graph::kInvalidEdge;
  out.witness = std::move(witness);
  return out;
}

}  // namespace decycle::core
