#include "baselines/clique_hcycle.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "graph/subgraph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::MessageReader;
using congest::MessageWriter;
using graph::Vertex;

constexpr std::uint64_t kTagRow = 1;       ///< member -> collector: my adjacency row
constexpr std::uint64_t kTagContinue = 2;  ///< collector -> all: phase p starts, joiners report
constexpr std::uint64_t kTagFound = 3;     ///< collector -> all: witness cycle, stop

/// |S_0|, the first phase's sample size (clamped to n); doubles per phase.
constexpr std::uint64_t kInitialSample = 8;

/// Everything the run fixes up front, shared read-only by all n programs.
/// The rank permutation and phase-size table derive from the seed alone, so
/// in the real model every node computes them locally from the shared seed;
/// here they are materialized once. The input-graph pointer stands in for
/// each node's knowledge of its OWN incident input edges (node v only ever
/// reads input->neighbors(v)) — the standard simulation shortcut for "the
/// input graph is distributed edge-wise over the clique".
struct SharedConfig {
  unsigned k = 0;
  const graph::Graph* input = nullptr;
  std::vector<std::uint32_t> rank;   ///< rank[v] = v's position in the sample order
  std::vector<std::uint32_t> sizes;  ///< |S_p| per phase; strictly doubling, last == n
};

/// One program class for both roles; vertex 0 is the collector. The clique
/// comm graph makes the port arithmetic trivial: the collector's port p is
/// vertex p+1, and vertex 0 is port 0 of every other node (neighbor lists
/// are sorted ascending).
class CliqueHCycleProgram final : public congest::NodeProgram {
 public:
  explicit CliqueHCycleProgram(std::shared_ptr<const SharedConfig> cfg) : cfg_(std::move(cfg)) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.vertex() == 0) {
      collector_round(ctx, inbox);
    } else {
      member_round(ctx, inbox);
    }
  }

  // --- post-run surface (read by the driver) -----------------------------
  [[nodiscard]] bool found() const noexcept { return found_; }
  [[nodiscard]] const std::vector<Vertex>& witness() const noexcept { return witness_; }
  [[nodiscard]] std::uint64_t phases_run() const noexcept { return phases_run_; }
  [[nodiscard]] std::uint64_t sampled_vertices() const noexcept { return sampled_vertices_; }
  [[nodiscard]] std::uint64_t sampled_edges() const noexcept { return sampled_edges_; }
  [[nodiscard]] std::optional<std::uint64_t> exit_phase() const noexcept { return exit_phase_; }

 private:
  void member_round(Context& ctx, std::span<const Envelope> inbox) {
    for (const Envelope& env : inbox) {
      MessageReader r(env.payload);
      const std::uint64_t tag = r.get_u64();
      if (tag == kTagFound) {
        found_ = true;
        witness_.clear();
        const std::uint64_t len = r.get_u64();
        for (std::uint64_t i = 0; i < len; ++i) {
          witness_.push_back(static_cast<Vertex>(r.get_u64()));
        }
      } else if (tag == kTagContinue) {
        const auto phase = static_cast<std::size_t>(r.get_u64());
        const std::uint32_t lo = cfg_->sizes[phase - 1];
        const std::uint32_t hi = cfg_->sizes[phase];
        const std::uint32_t mine = cfg_->rank[ctx.vertex()];
        if (mine >= lo && mine < hi) send_row(ctx);
      }
    }
    // Round 0: every node runs once; the initial sample reports unprompted.
    if (ctx.round() == 0 && cfg_->rank[ctx.vertex()] < cfg_->sizes[0]) send_row(ctx);
  }

  void send_row(Context& ctx) {
    MessageWriter w;
    w.put_u64(kTagRow);
    for (const Vertex u : cfg_->input->neighbors(ctx.vertex())) w.put_u64(u);
    ctx.send(0, w.finish());  // the collector is port 0 of every member
  }

  void collector_round(Context& ctx, std::span<const Envelope> inbox) {
    if (ctx.round() == 0) {
      ctx.request_wakeup_at(1);  // process phase 0 even if every row drops
      if (ctx.degree() == 0) process(ctx);  // n == 1: no mail will ever arrive
      return;
    }
    if (done_) return;
    // Fold freshly arrived rows into the accumulated edge pool. The sender
    // vertex is the collector's port + 1; rows list INPUT-graph neighbors.
    for (const Envelope& env : inbox) {
      const Vertex from = env.port + 1;
      MessageReader r(env.payload);
      if (r.get_u64() != kTagRow) continue;  // protocol: members never send else
      while (!r.at_end()) {
        const auto u = static_cast<Vertex>(r.get_u64());
        edges_.emplace_back(std::min(from, u), std::max(from, u));
      }
    }
    if (ctx.round() == 2 * phase_ + 1) process(ctx);
  }

  /// Runs the phase_ search over the accumulated rows and either exits
  /// (found / sample exhausted) or launches the next doubling.
  void process(Context& ctx) {
    const std::uint32_t s = cfg_->sizes[phase_];
    if (!own_row_added_ && cfg_->rank[0] < s) {
      own_row_added_ = true;
      for (const Vertex u : cfg_->input->neighbors(0)) {
        edges_.emplace_back(std::min<Vertex>(0, u), std::max<Vertex>(0, u));
      }
    }
    // Induced restriction to S_p: both endpoints sampled. from_edges dedups
    // the two-endpoint double reports.
    std::vector<graph::Edge> in_sample;
    for (const graph::Edge& e : edges_) {
      if (cfg_->rank[e.first] < s && cfg_->rank[e.second] < s) in_sample.push_back(e);
    }
    const graph::Graph sub =
        graph::Graph::from_edges(cfg_->input->num_vertices(), in_sample);
    ++phases_run_;
    sampled_vertices_ = s;
    sampled_edges_ = sub.num_edges();

    if (auto cycle = graph::find_cycle(sub, cfg_->k)) {
      found_ = true;
      witness_ = std::move(*cycle);
      exit_phase_ = phase_;
      done_ = true;
      MessageWriter w;
      w.put_u64(kTagFound);
      w.put_u64(witness_.size());
      for (const Vertex v : witness_) w.put_u64(v);
      ctx.send_all(w.finish());
      return;
    }
    if (s >= cfg_->input->num_vertices()) {
      done_ = true;  // whole graph collected and C_k-free: accept, quiesce
      return;
    }
    ++phase_;
    MessageWriter w;
    w.put_u64(kTagContinue);
    w.put_u64(phase_);
    ctx.send_all(w.finish());
    // Progress even if every continue (hence every row) is dropped.
    ctx.request_wakeup_at(2 * phase_ + 1);
  }

  std::shared_ptr<const SharedConfig> cfg_;

  // Collector state.
  std::vector<graph::Edge> edges_;  ///< canonical, possibly duplicated; rank-filtered per phase
  std::uint64_t phase_ = 0;
  bool own_row_added_ = false;
  bool done_ = false;
  std::uint64_t phases_run_ = 0;
  std::uint64_t sampled_vertices_ = 0;
  std::uint64_t sampled_edges_ = 0;
  std::optional<std::uint64_t> exit_phase_;

  // Both roles.
  bool found_ = false;
  std::vector<Vertex> witness_;
};

class CliqueHCycleDetector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "clique_hcycle"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    // max_k = 16 is a lab-practicality bound on the collector's exact
    // search over sampled subgraphs, not an algorithmic limit.
    static constexpr core::DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 16,
        .has_repetitions = false,
        .models = congest::kModelClique,
        .exact_when_lossless = true,
        .summary = "cycle-count-adaptive Congested-Clique h-cycle detection (CEW): "
                   "doubling vertex samples to a collector, exact subgraph search, "
                   "early exit when copies abound"};
    return caps;
  }

  [[nodiscard]] std::span<const core::CounterDef> counters() const noexcept override {
    // Names and order are the JSONL contract for algo=clique_hcycle cells.
    static constexpr core::CounterDef defs[] = {
        {"phases_total", core::CounterKind::kSum},
        {"sampled_vertices_total", core::CounterKind::kSum},
        {"sampled_edges_total", core::CounterKind::kSum},
        {"early_exit_trials", core::CounterKind::kSum},
        {"rounds_saved_total", core::CounterKind::kSum},
    };
    return defs;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override {
    DECYCLE_CHECK_MSG(sim.model().kind() == congest::CommModelKind::kClique,
                      std::string("clique_hcycle runs on the Congested Clique only; this "
                                  "simulator was built with model '") +
                          std::string(sim.model().name()) +
                          "' (construct it with CommModel::clique())");
    DECYCLE_CHECK_MSG(options.k >= 3, "clique_hcycle: k must be at least 3");
    const graph::Graph& g = sim.graph();
    const Vertex n = g.num_vertices();

    core::Verdict verdict;
    if (n == 0) {
      verdict.truncated = true;  // nothing ran, so nothing quiesced
      verdict.counters.assign(counters().size(), 0);
      return verdict;
    }

    auto cfg = std::make_shared<SharedConfig>();
    cfg->k = options.k;
    cfg->input = &g;
    util::Rng rng(options.seed);
    const std::vector<std::uint32_t> order = rng.permutation(n);
    cfg->rank.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) cfg->rank[order[i]] = i;
    std::uint64_t s = std::min<std::uint64_t>(n, kInitialSample);
    for (;;) {
      cfg->sizes.push_back(static_cast<std::uint32_t>(s));
      if (s >= n) break;
      s = std::min<std::uint64_t>(n, 2 * s);
    }

    sim.reset([&cfg](Vertex) { return std::make_unique<CliqueHCycleProgram>(cfg); });
    verdict.stats = sim.run(core::simulator_options(options, 2 * cfg->sizes.size() + 4));
    verdict.truncated = !verdict.stats.halted;

    const auto& collector = static_cast<const CliqueHCycleProgram&>(sim.program(0));
    std::uint64_t early_exit = 0;
    std::uint64_t rounds_saved = 0;
    if (collector.found()) {
      verdict.witness = collector.witness();
      if (options.validate_witnesses) {
        DECYCLE_CHECK_MSG(graph::validate_cycle(g, verdict.witness),
                          "clique_hcycle produced an invalid witness cycle");
        DECYCLE_CHECK_MSG(verdict.witness.size() == options.k,
                          "clique_hcycle witness has the wrong length");
      }
      const std::uint64_t last_phase = cfg->sizes.size() - 1;
      const std::uint64_t exit_phase = *collector.exit_phase();
      early_exit = exit_phase < last_phase ? 1 : 0;
      rounds_saved = 2 * (last_phase - exit_phase);
    }
    sim.for_each_program<CliqueHCycleProgram>([&](Vertex, const CliqueHCycleProgram& prog) {
      if (!prog.found()) return;
      verdict.accepted = false;
      verdict.rejecting_nodes += 1;
    });
    verdict.counters = {collector.phases_run(), collector.sampled_vertices(),
                        collector.sampled_edges(), early_exit, rounds_saved};
    return verdict;
  }
};

}  // namespace

std::unique_ptr<core::Detector> make_clique_hcycle_detector() {
  return std::make_unique<CliqueHCycleDetector>();
}

}  // namespace decycle::baselines
