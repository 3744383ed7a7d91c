#include "baselines/triangle_chs.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "core/witness.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::MessageReader;
using congest::MessageWriter;
using graph::NodeId;

constexpr std::uint64_t kTagQuery = 1;
constexpr std::size_t kDefaultIterations = 64;

/// Two rounds per iteration: even rounds send queries, odd rounds answer
/// them locally (the answerer knows its neighbor IDs, so detection happens
/// at the answerer without a reply round).
class TriangleProgram final : public congest::NodeProgram {
 public:
  TriangleProgram(std::size_t iterations, std::uint64_t seed, NodeId my_id)
      : iterations_(iterations), seed_(seed), my_id_(my_id) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    const std::uint64_t iter = ctx.round();
    // Answer incoming queries: "are you adjacent to b?" — check the local
    // neighbor table; a hit exposes the triangle (sender, me, b).
    for (const Envelope& env : inbox) {
      MessageReader r(env.payload);
      const std::uint64_t tag = r.get_u64();
      DECYCLE_CHECK(tag == kTagQuery);
      const NodeId b = r.get_u64();
      if (!triangle_ && is_neighbor(ctx, b)) {
        triangle_ = {r_sender(ctx, env.port), my_id_, b};
      }
    }
    if (iter >= iterations_) return;

    if (ctx.degree() >= 2) {
      util::Rng rng = util::Rng(seed_).fork(iter).fork(my_id_);
      const auto pick = rng.sample_distinct(ctx.degree(), 2);
      const auto port_a = static_cast<std::uint32_t>(pick[0]);
      const auto port_b = static_cast<std::uint32_t>(pick[1]);
      MessageWriter w;
      w.put_u64(kTagQuery);
      w.put_u64(ctx.neighbor_id(port_b));
      ctx.send(port_a, w.finish());
    }
    ctx.request_wakeup_at(iter + 1);
  }

  [[nodiscard]] const std::optional<std::array<NodeId, 3>>& triangle() const noexcept {
    return triangle_;
  }

 private:
  [[nodiscard]] static bool is_neighbor_id(Context& ctx, NodeId id) {
    for (std::uint32_t p = 0; p < ctx.degree(); ++p) {
      if (ctx.neighbor_id(p) == id) return true;
    }
    return false;
  }
  [[nodiscard]] bool is_neighbor(Context& ctx, NodeId id) const { return is_neighbor_id(ctx, id); }
  [[nodiscard]] static NodeId r_sender(Context& ctx, std::uint32_t port) {
    return ctx.neighbor_id(port);
  }

  std::size_t iterations_;
  std::uint64_t seed_;
  NodeId my_id_;
  std::optional<std::array<NodeId, 3>> triangle_;
};

class TriangleDetector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "triangle"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    static constexpr core::DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 3,
        .summary = "CHS-style triangle tester [7]: random neighbor-pair adjacency "
                   "queries against the KT1 neighbor table"};
    return caps;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override {
    DECYCLE_CHECK_MSG(options.k == 3, "detector 'triangle' supports k=3 only, got k=" +
                                          std::to_string(options.k));
    const graph::Graph& g = sim.graph();
    const graph::IdAssignment& ids = sim.ids();
    core::Verdict verdict;
    verdict.repetitions = options.repetitions != 0 ? options.repetitions : kDefaultIterations;
    sim.reset([&](graph::Vertex v) {
      return std::make_unique<TriangleProgram>(verdict.repetitions, options.seed, ids.id_of(v));
    });
    verdict.stats = sim.run(core::simulator_options(options, verdict.repetitions + 2));

    sim.for_each_program<TriangleProgram>([&](graph::Vertex, const TriangleProgram& prog) {
      if (!prog.triangle()) return;
      verdict.accepted = false;
      verdict.rejecting_nodes += 1;
      if (verdict.witness.empty()) {
        verdict.witness =
            core::witness_vertices(g, ids, *prog.triangle(), options.validate_witnesses);
      }
    });
    return verdict;
  }
};

}  // namespace

std::unique_ptr<core::Detector> make_triangle_detector() {
  return std::make_unique<TriangleDetector>();
}

}  // namespace decycle::baselines
