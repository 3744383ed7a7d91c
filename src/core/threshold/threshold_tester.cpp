#include "core/threshold/threshold_tester.hpp"

#include <algorithm>
#include <utility>

#include "core/wire.hpp"
#include "core/witness.hpp"
#include "util/check.hpp"

namespace decycle::core::threshold {

namespace {
// Message tags (this family's own wire namespace).
constexpr std::uint64_t kTagRank = 1;
constexpr std::uint64_t kTagBundle = 3;
}  // namespace

ThresholdProgram::ThresholdProgram(const DetectParams& params, const BudgetSchedule& budget,
                                   std::size_t max_tracked, std::size_t sweeps,
                                   std::uint64_t seed, std::uint64_t n, NodeId my_id)
    : params_(params),
      budget_(budget),
      max_tracked_(max_tracked),
      sweeps_(sweeps),
      seed_(seed),
      rank_range_(rank_range_for(n)),
      my_id_(my_id),
      half_(params.k / 2),
      sweep_len_(static_cast<std::uint64_t>(params.k / 2) + 2),
      max_sent_by_round_(half_ + 1, 0) {
  DECYCLE_CHECK_MSG(sweeps_ >= 1, "threshold tester needs at least one sweep");
}

void ThresholdProgram::on_round(congest::Context& ctx,
                                std::span<const congest::Envelope> inbox) {
  const std::uint64_t round = ctx.round();
  const std::uint64_t sweep = round / sweep_len_;
  const std::uint64_t phase = round % sweep_len_;
  if (sweep >= sweeps_) return;

  if (phase == 0) {
    start_sweep(ctx, sweep);
  } else if (phase == 1) {
    seed_executions(ctx, inbox);
  } else {
    bundle_round(ctx, inbox, phase - 1);
  }
}

void ThresholdProgram::start_sweep(congest::Context& ctx, std::size_t sweep) {
  tracked_.clear();
  port_rank_.assign(ctx.degree(), kRankMissing);

  // Same rank protocol as Phase 1 of the tester: the smaller-ID endpoint
  // owns the edge, draws its rank from a per-(seed, sweep, node) stream in
  // port order, and ships it across.
  util::Rng rng = util::Rng(seed_).fork(sweep).fork(my_id_);
  for (std::uint32_t port = 0; port < ctx.degree(); ++port) {
    const NodeId other = ctx.neighbor_id(port);
    if (my_id_ < other) {
      const std::uint64_t rank = draw_rank(rng, rank_range_);
      port_rank_[port] = rank;
      congest::MessageWriter w;
      w.put_u64(kTagRank);
      w.put_u64(rank);
      ctx.send(port, w.finish());
    }
  }
  // Every node runs the seeding phase even without inbound rank mail.
  ctx.request_wakeup_at(ctx.round() + 1);
}

void ThresholdProgram::seed_executions(congest::Context& ctx,
                                       std::span<const congest::Envelope> inbox) {
  for (const congest::Envelope& env : inbox) {
    congest::MessageReader r(env.payload);
    const std::uint64_t tag = r.get_u64();
    DECYCLE_CHECK_MSG(tag == kTagRank, "unexpected message in threshold rank round");
    port_rank_[env.port] = r.get_u64();
  }
  const std::uint64_t sweep = ctx.round() / sweep_len_;
  if (sweep + 1 < sweeps_) {
    ctx.request_wakeup_at((sweep + 1) * sweep_len_);  // next sweep's rank phase
  }
  if (ctx.degree() == 0) return;  // isolated node: nothing to seed

  // Every incident edge with a known rank is a candidate execution; this
  // node is an endpoint of each, so each seeds {(my_id)}. A missing rank
  // (owner's rank message lost) leaves the owner side to seed alone —
  // exactly the tester's fault posture.
  std::vector<EdgePriority> candidates;
  candidates.reserve(ctx.degree());
  for (std::uint32_t port = 0; port < ctx.degree(); ++port) {
    if (port_rank_[port] == kRankMissing) continue;
    const NodeId other = ctx.neighbor_id(port);
    candidates.push_back(
        EdgePriority{port_rank_[port], std::min(my_id_, other), std::max(my_id_, other)});
  }
  std::sort(candidates.begin(), candidates.end());

  const std::size_t cap =
      max_tracked_ == 0 ? candidates.size() : std::min(candidates.size(), max_tracked_);
  stats_.seed_capped += candidates.size() - cap;

  // Reserve up front: bundle entries point at tracked_ elements.
  tracked_.reserve(cap);
  std::vector<std::pair<const EdgePriority*, std::vector<IdSeq>>> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    tracked_.push_back(Execution{candidates[i],
                                 EdgeDetectState(params_, my_id_, candidates[i].u,
                                                 candidates[i].v),
                                 {}});
    auto seeds = tracked_.back().state.seed();
    DECYCLE_CHECK(!seeds.empty());  // this node is always an endpoint
    ++stats_.seeded_executions;
    out.emplace_back(&tracked_.back().ep, std::move(seeds));
  }
  stats_.peak_tracked = std::max(stats_.peak_tracked, tracked_.size());
  if (!out.empty()) broadcast_bundles(ctx, 0, out);
}

void ThresholdProgram::deliver(const EdgePriority& ep, std::vector<IdSeq>&& seqs) {
  const auto pos = [&] {
    return std::lower_bound(tracked_.begin(), tracked_.end(), ep,
                            [](const Execution& e, const EdgePriority& p) { return e.ep < p; });
  };
  auto it = pos();
  if (it != tracked_.end() && it->ep == ep) {
    it->pending.insert(it->pending.end(), std::make_move_iterator(seqs.begin()),
                       std::make_move_iterator(seqs.end()));
    return;
  }
  if (max_tracked_ != 0 && tracked_.size() >= max_tracked_) {
    if (!(ep < tracked_.back().ep)) {
      stats_.discarded_sequences += seqs.size();  // lower priority than everything tracked
      return;
    }
    // Evict the worst tracked execution; sequences it had already
    // accumulated this round are squeezed out too and must show up in the
    // discard counter (the "counted, never silently" contract).
    stats_.discarded_sequences += tracked_.back().pending.size();
    tracked_.pop_back();
    ++stats_.evictions;
    it = pos();
  }
  tracked_.insert(it, Execution{ep, EdgeDetectState(params_, my_id_, ep.u, ep.v),
                                std::move(seqs)});
  stats_.peak_tracked = std::max(stats_.peak_tracked, tracked_.size());
}

void ThresholdProgram::bundle_round(congest::Context& ctx,
                                    std::span<const congest::Envelope> inbox, std::uint64_t g) {
  if (g > half_) return;

  // Intake: route every execution's sequences, adopting or evicting under
  // the tracking cap. Envelope order (by port) and wire order make every
  // adoption decision deterministic.
  for (const congest::Envelope& env : inbox) {
    congest::MessageReader r(env.payload);
    const std::uint64_t tag = r.get_u64();
    DECYCLE_CHECK_MSG(tag == kTagBundle, "unexpected message in threshold bundle round");
    const std::uint64_t count = r.get_u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      EdgePriority ep;
      ep.rank = r.get_u64();
      ep.u = r.get_u64();
      ep.v = r.get_u64();
      deliver(ep, read_sequences(r));
    }
  }

  // Step every execution that received traffic; tracked_ is stable here.
  std::vector<std::pair<const EdgePriority*, std::vector<IdSeq>>> out;
  for (Execution& ex : tracked_) {
    if (ex.pending.empty()) continue;
    auto to_send = ex.state.step(g, std::move(ex.pending));
    ex.pending.clear();
    overflow_ = overflow_ || ex.state.overflowed();
    if (g == half_) {
      if (ex.state.rejected() && witness_ids_.empty()) {
        witness_ids_ = ex.state.witness_cycle_ids();
        reject_sweep_ = static_cast<std::size_t>(ctx.round() / sweep_len_);
      }
      continue;
    }
    if (!to_send.empty()) out.emplace_back(&ex.ep, std::move(to_send));
  }
  if (!out.empty()) broadcast_bundles(ctx, g, out);
}

void ThresholdProgram::broadcast_bundles(
    congest::Context& ctx, std::uint64_t g,
    std::vector<std::pair<const EdgePriority*, std::vector<IdSeq>>>& out) {
  // Per-link budget: keep sequences in priority order (out is already
  // sorted by execution priority), truncate the rest. One merged message
  // per link keeps the CONGEST one-slot discipline.
  const std::size_t cap = budget_.at(g);
  std::size_t remaining = cap == 0 ? ~std::size_t{0} : cap;
  std::size_t kept_execs = 0;
  std::size_t kept_seqs = 0;
  std::vector<std::size_t> keep(out.size(), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    keep[i] = std::min(out[i].second.size(), remaining);
    remaining -= keep[i];
    stats_.budget_truncated += out[i].second.size() - keep[i];
    if (keep[i] != 0) ++kept_execs;
    kept_seqs += keep[i];
  }
  if (kept_seqs == 0) return;  // budget swallowed the whole round

  congest::MessageWriter w;
  w.put_u64(kTagBundle);
  w.put_u64(kept_execs);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (keep[i] == 0) continue;
    w.put_u64(out[i].first->rank);
    w.put_u64(out[i].first->u);
    w.put_u64(out[i].first->v);
    write_sequences(w, std::span<const IdSeq>(out[i].second.data(), keep[i]));
  }
  max_sent_by_round_[g] = std::max(max_sent_by_round_[g], kept_seqs);
  ctx.send_all(w.finish());
}

namespace {

class ThresholdDetector final : public Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "threshold"; }

  [[nodiscard]] const DetectorCapabilities& capabilities() const noexcept override {
    static constexpr DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .uses_threshold_knobs = true,
        .summary = "threshold family: Phase 2 for every edge in one sweep, congestion "
                   "bounded by budget/track caps"};
    return caps;
  }

  [[nodiscard]] std::span<const CounterDef> counters() const noexcept override {
    // Names and order are the JSONL contract for algo=threshold cells.
    static constexpr CounterDef defs[] = {
        {"seeded_total", CounterKind::kSum},
        {"seed_capped_total", CounterKind::kSum},
        {"evictions_total", CounterKind::kSum},
        {"discarded_seqs_total", CounterKind::kSum},
        {"budget_truncated_total", CounterKind::kSum},
        {"peak_tracked", CounterKind::kMax},
    };
    return defs;
  }

  [[nodiscard]] Verdict run(congest::Simulator& sim,
                            const DetectorOptions& options) const override {
    DECYCLE_CHECK_MSG(options.k >= 3, "k must be at least 3");
    const graph::Graph& g = sim.graph();
    const graph::IdAssignment& ids = sim.ids();
    // Independent sweeps with fresh ranks; priorities reshuffle which
    // executions survive the thresholds, so extra sweeps buy completeness
    // back when the budgets bite. 1 is exhaustive when budgets are off.
    const std::size_t sweeps = options.repetitions != 0 ? options.repetitions : 1;
    Verdict verdict;
    verdict.repetitions = sweeps;
    const DetectParams params = detect_params(options);

    sim.reset([&](graph::Vertex vert) {
      return std::make_unique<ThresholdProgram>(params, options.budget, options.max_tracked,
                                                sweeps, options.seed, g.num_vertices(),
                                                ids.id_of(vert));
    });

    // Same shape as the tester's bound: sweeps full windows of ⌊k/2⌋+2
    // rounds (the last activity is the final-check round at offset
    // sweep_len-1), plus delivery slack.
    verdict.stats = sim.run(
        simulator_options(options, sweeps * (static_cast<std::uint64_t>(options.k / 2) + 2) + 4));
    verdict.truncated = !verdict.stats.halted;

    ThresholdStats total;
    sim.for_each_program<ThresholdProgram>([&](graph::Vertex, const ThresholdProgram& prog) {
      verdict.overflow = verdict.overflow || prog.overflowed();
      for (const std::size_t count : prog.max_sent_by_round()) {
        verdict.max_bundle_sequences = std::max(verdict.max_bundle_sequences, count);
      }
      const ThresholdStats& s = prog.stats();
      total.seeded_executions += s.seeded_executions;
      total.seed_capped += s.seed_capped;
      total.evictions += s.evictions;
      total.discarded_sequences += s.discarded_sequences;
      total.budget_truncated += s.budget_truncated;
      total.peak_tracked = std::max(total.peak_tracked, s.peak_tracked);
      if (prog.rejected()) {
        verdict.accepted = false;
        verdict.rejecting_nodes += 1;
        if (verdict.witness.empty()) {
          verdict.witness =
              witness_vertices(g, ids, prog.witness_ids(), options.validate_witnesses);
        }
      }
    });
    verdict.counters = {total.seeded_executions, total.seed_capped,
                        total.evictions,         total.discarded_sequences,
                        total.budget_truncated,  total.peak_tracked};
    return verdict;
  }
};

}  // namespace

std::unique_ptr<Detector> make_threshold_detector() {
  return std::make_unique<ThresholdDetector>();
}

}  // namespace decycle::core::threshold
