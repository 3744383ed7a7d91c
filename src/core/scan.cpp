#include "core/scan.hpp"

namespace decycle::core {

ScanResult exhaustive_ck_scan(const graph::Graph& g, const graph::IdAssignment& ids,
                              const ScanOptions& options) {
  ScanResult out;
  const std::uint64_t rounds_per_edge = options.detect.k / 2 + 1;

  const Detector& checker = DetectorRegistry::builtin().require("edge_checker");
  DetectorOptions opt;
  opt.k = options.detect.k;
  opt.pruning = options.detect.pruning;
  opt.fake_ids = options.detect.fake_ids;
  opt.naive_cap = options.detect.naive_cap;
  opt.trace = options.detect.trace;

  congest::Simulator sim(g, ids);  // reset per edge (the reuse contract)
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    opt.edge = g.edge(e);
    const Verdict result = checker.run(sim, opt);
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

}  // namespace decycle::core
