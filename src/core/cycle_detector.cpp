#include "core/cycle_detector.hpp"

#include "core/wire.hpp"
#include "core/witness.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::core {

void EdgeCheckProgram::on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) {
  const std::uint64_t g = ctx.round();
  std::vector<IdSeq> to_send;
  if (g == 0) {
    to_send = state_.seed();
  } else if (g <= state_.half()) {
    std::vector<IdSeq> received;
    for (const congest::Envelope& env : inbox) {
      congest::MessageReader r(env.payload);
      auto seqs = read_sequences(r);
      received.insert(received.end(), std::make_move_iterator(seqs.begin()),
                      std::make_move_iterator(seqs.end()));
    }
    to_send = state_.step(g, std::move(received));
  }
  if (!to_send.empty()) {
    congest::MessageWriter w;
    write_sequences(w, to_send);
    ctx.send_all(w.finish());
  }
}

namespace {

/// Seed-stream tag for the per-run target edge when DetectorOptions::edge is
/// absent. Identical to the stream the lab runner historically used, so
/// registry dispatch reproduces pre-registry edge_checker cells byte-for-byte.
constexpr std::uint64_t kEdgeTag = 0x656467655f5f5f31ULL;  // "edge___1"

class EdgeCheckerDetector final : public Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "edge_checker"; }

  [[nodiscard]] const DetectorCapabilities& capabilities() const noexcept override {
    static constexpr DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .has_repetitions = false,
        .draws_edge = true,
        .summary = "deterministic single-edge checker (Phase 2 in isolation): "
                   "is there a Ck through the target edge?"};
    return caps;
  }

  [[nodiscard]] Verdict run(congest::Simulator& sim,
                            const DetectorOptions& options) const override {
    const graph::Graph& g = sim.graph();
    const graph::IdAssignment& ids = sim.ids();
    graph::Edge target;
    if (options.edge.has_value()) {
      target = *options.edge;
    } else {
      // An edgeless graph has no C_k, so a 1-sided tester accepts it
      // without a target edge to draw.
      if (g.num_edges() == 0) return Verdict{};
      util::Rng erng(util::splitmix64(options.seed ^ kEdgeTag));
      target = g.edge(static_cast<graph::EdgeId>(erng.next_below(g.num_edges())));
    }
    DECYCLE_CHECK_MSG(g.has_edge(target.first, target.second),
                      "edge to check is not in the graph");
    const NodeId u = ids.id_of(target.first);
    const NodeId v = ids.id_of(target.second);
    const DetectParams params = detect_params(options);

    sim.reset([&](graph::Vertex vert) {
      return std::make_unique<EdgeCheckProgram>(params, ids.id_of(vert), u, v);
    });
    Verdict verdict;
    // ⌊k/2⌋+1 rounds suffice; margin for safety.
    verdict.stats = sim.run(simulator_options(options, params.k + 2));
    verdict.truncated = !verdict.stats.halted;

    sim.for_each_program<EdgeCheckProgram>([&](graph::Vertex, const EdgeCheckProgram& prog) {
      const EdgeDetectState& state = prog.state();
      verdict.overflow = verdict.overflow || state.overflowed();
      for (const std::size_t count : state.sent_counts()) {
        verdict.max_bundle_sequences = std::max(verdict.max_bundle_sequences, count);
      }
      // One target edge, one answer: the first rejecting node speaks for it.
      if (verdict.accepted && state.rejected()) {
        verdict.accepted = false;
        verdict.rejecting_nodes = 1;
        verdict.witness = validated_witness_vertices(g, ids, state.witness_cycle_ids());
      }
    });
    return verdict;
  }
};

}  // namespace

std::unique_ptr<Detector> make_edge_checker_detector() {
  return std::make_unique<EdgeCheckerDetector>();
}

}  // namespace decycle::core
