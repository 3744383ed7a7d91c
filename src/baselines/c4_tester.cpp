#include "baselines/c4_tester.hpp"

#include <array>
#include <memory>
#include <optional>
#include <utility>

#include "core/witness.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {

namespace {

using congest::Context;
using congest::Envelope;
using congest::MessageReader;
using congest::MessageWriter;
using graph::NodeId;

constexpr std::uint64_t kTagCherry = 1;
constexpr std::size_t kDefaultIterations = 64;

class C4Program final : public congest::NodeProgram {
 public:
  C4Program(std::size_t iterations, std::uint64_t seed, NodeId my_id)
      : iterations_(iterations), seed_(seed), my_id_(my_id) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    // Two distinct senders reporting the same partner close a 4-cycle
    // through this node (reports name the pair {a,b} with a = this node).
    // Inboxes hold at most one report per neighbor, so the pairwise scan is
    // O(d²) with tiny constants.
    if (!c4_) check_all_pairs(ctx, inbox);

    const std::uint64_t iter = ctx.round();
    if (iter >= iterations_) return;
    if (ctx.degree() >= 2) {
      util::Rng rng = util::Rng(seed_).fork(iter).fork(my_id_);
      const auto pick = rng.sample_distinct(ctx.degree(), 2);
      auto port_a = static_cast<std::uint32_t>(pick[0]);
      auto port_b = static_cast<std::uint32_t>(pick[1]);
      // Report to the smaller-ID endpoint of the pair.
      if (ctx.neighbor_id(port_a) > ctx.neighbor_id(port_b)) std::swap(port_a, port_b);
      MessageWriter w;
      w.put_u64(kTagCherry);
      w.put_u64(ctx.neighbor_id(port_b));  // the other endpoint of the cherry
      ctx.send(port_a, w.finish());
    }
    ctx.request_wakeup_at(iter + 1);
  }

  [[nodiscard]] const std::optional<std::array<NodeId, 4>>& c4() const noexcept { return c4_; }

 private:
  void check_all_pairs(Context& ctx, std::span<const Envelope> inbox) {
    for (std::size_t i = 0; i < inbox.size() && !c4_; ++i) {
      for (std::size_t j = i + 1; j < inbox.size() && !c4_; ++j) {
        MessageReader ri(inbox[i].payload);
        MessageReader rj(inbox[j].payload);
        (void)ri.get_u64();
        (void)rj.get_u64();
        const NodeId pi = ri.get_u64();
        const NodeId pj = rj.get_u64();
        const NodeId si = ctx.neighbor_id(inbox[i].port);
        const NodeId sj = ctx.neighbor_id(inbox[j].port);
        if (pi == pj && si != sj) c4_ = {si, my_id_, sj, pi};
      }
    }
  }

  std::size_t iterations_;
  std::uint64_t seed_;
  NodeId my_id_;
  std::optional<std::array<NodeId, 4>> c4_;
};

class C4Detector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "c4"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    static constexpr core::DetectorCapabilities caps{
        .min_k = 4,
        .max_k = 4,
        .summary = "FRST-style C4 tester [20]: random cherry sampling; the technique "
                   "provably fails for k >= 5"};
    return caps;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override {
    DECYCLE_CHECK_MSG(options.k == 4,
                      "detector 'c4' supports k=4 only, got k=" + std::to_string(options.k));
    const graph::Graph& g = sim.graph();
    const graph::IdAssignment& ids = sim.ids();
    core::Verdict verdict;
    verdict.repetitions = options.repetitions != 0 ? options.repetitions : kDefaultIterations;
    sim.reset([&](graph::Vertex v) {
      return std::make_unique<C4Program>(verdict.repetitions, options.seed, ids.id_of(v));
    });
    verdict.stats = sim.run(core::simulator_options(options, verdict.repetitions + 2));

    sim.for_each_program<C4Program>([&](graph::Vertex, const C4Program& prog) {
      if (!prog.c4()) return;
      verdict.accepted = false;
      verdict.rejecting_nodes += 1;
      if (verdict.witness.empty()) {
        verdict.witness = core::validated_witness_vertices(g, ids, *prog.c4());
      }
    });
    return verdict;
  }
};

}  // namespace

std::unique_ptr<core::Detector> make_c4_detector() { return std::make_unique<C4Detector>(); }

}  // namespace decycle::baselines
