#include "core/tester.hpp"

#include <algorithm>

#include "core/wire.hpp"
#include "core/witness.hpp"
#include "util/check.hpp"

namespace decycle::core {

namespace {
// Message tags.
constexpr std::uint64_t kTagRank = 1;
constexpr std::uint64_t kTagSequences = 2;
}  // namespace

TesterProgram::TesterProgram(const DetectParams& params, std::size_t repetitions,
                             std::uint64_t seed, std::uint64_t n, NodeId my_id)
    : params_(params),
      repetitions_(repetitions),
      seed_(seed),
      rank_range_(rank_range_for(n)),
      my_id_(my_id),
      half_(params.k / 2),
      rep_len_(static_cast<std::uint64_t>(params.k / 2) + 2),
      max_sent_by_round_(half_ + 1, 0) {
  DECYCLE_CHECK_MSG(repetitions_ >= 1, "tester needs at least one repetition");
}

void TesterProgram::on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) {
  const std::uint64_t round = ctx.round();
  const std::uint64_t rep = round / rep_len_;
  const std::uint64_t phase = round % rep_len_;
  if (rep >= repetitions_) return;

  if (phase == 0) {
    start_repetition(ctx, rep);
  } else if (phase == 1) {
    select_and_seed(ctx, inbox);
  } else {
    phase2_round(ctx, inbox, phase - 1);
  }
}

void TesterProgram::start_repetition(congest::Context& ctx, std::size_t rep) {
  // Fresh per-repetition state.
  current_.reset();
  state_.reset();
  port_rank_.assign(ctx.degree(), kRankMissing);

  // Deterministic per-(seed, repetition, node) stream; draws happen in port
  // order, so the rank of each edge is independent of scheduling.
  util::Rng rng = util::Rng(seed_).fork(rep).fork(my_id_);
  for (std::uint32_t port = 0; port < ctx.degree(); ++port) {
    const NodeId other = ctx.neighbor_id(port);
    if (my_id_ < other) {  // this node owns the edge and assigns its rank
      const std::uint64_t rank = draw_rank(rng, rank_range_);
      port_rank_[port] = rank;
      congest::MessageWriter w;
      w.put_u64(kTagRank);
      w.put_u64(rank);
      ctx.send(port, w.finish());
    }
  }

  // Every node must run the selection phase even if it receives no rank
  // mail (e.g. a local-minimum-ID node owns all its incident edges).
  ctx.request_wakeup_at(ctx.round() + 1);
  (void)rep;
}

void TesterProgram::select_and_seed(congest::Context& ctx,
                                    std::span<const congest::Envelope> inbox) {
  for (const congest::Envelope& env : inbox) {
    congest::MessageReader r(env.payload);
    const std::uint64_t tag = r.get_u64();
    DECYCLE_CHECK_MSG(tag == kTagRank, "unexpected message in rank round");
    port_rank_[env.port] = r.get_u64();
  }
  const std::uint64_t rep = ctx.round() / rep_len_;
  if (rep + 1 < repetitions_) {
    ctx.request_wakeup_at((rep + 1) * rep_len_);  // next repetition's rank phase
  }
  if (ctx.degree() == 0) return;  // isolated node: nothing to test

  // Minimum-(rank, u, v) incident edge (Phase 1 selection). A rank can be
  // missing if the owner's rank message was lost (fault experiments); such
  // edges are simply not candidates here — the owner side still seeds them,
  // and soundness never depends on delivery. draw_rank never returns
  // kRankMissing, so a legitimately drawn minimum rank is never mistaken
  // for a lost message.
  std::optional<EdgePriority> best;
  for (std::uint32_t port = 0; port < ctx.degree(); ++port) {
    if (port_rank_[port] == kRankMissing) continue;
    const NodeId other = ctx.neighbor_id(port);
    const EdgePriority ep{port_rank_[port], std::min(my_id_, other), std::max(my_id_, other)};
    if (!best || ep < *best) best = ep;
  }
  if (!best) return;  // every incident rank was lost this repetition
  current_ = *best;
  state_.emplace(params_, my_id_, current_->u, current_->v);

  // This node is an endpoint of its chosen edge, so it always seeds.
  const auto seqs = state_->seed();
  DECYCLE_CHECK(!seqs.empty());
  max_sent_by_round_[0] = std::max(max_sent_by_round_[0], seqs.size());
  broadcast_sequences(ctx, seqs);
}

void TesterProgram::phase2_round(congest::Context& ctx, std::span<const congest::Envelope> inbox,
                                 std::uint64_t g) {
  if (g > half_) return;

  // First pass: the highest-priority edge mentioned this round (prioritized
  // search: smaller (rank, u, v) preempts).
  struct Incoming {
    EdgePriority ep;
    std::vector<IdSeq> seqs;
  };
  std::vector<Incoming> messages;
  messages.reserve(inbox.size());
  std::optional<EdgePriority> best = current_;
  for (const congest::Envelope& env : inbox) {
    congest::MessageReader r(env.payload);
    const std::uint64_t tag = r.get_u64();
    DECYCLE_CHECK_MSG(tag == kTagSequences, "unexpected message in phase-2 round");
    Incoming in;
    in.ep.rank = r.get_u64();
    in.ep.u = r.get_u64();
    in.ep.v = r.get_u64();
    in.seqs = read_sequences(r);
    if (!best || in.ep < *best) best = in.ep;
    messages.push_back(std::move(in));
  }
  if (!best) return;

  if (!current_ || *best < *current_) {
    // Switch to the higher-priority edge; prior execution state is dropped.
    if (current_) ++switches_;
    current_ = *best;
    state_.emplace(params_, my_id_, current_->u, current_->v);
  }

  std::vector<IdSeq> received;
  for (Incoming& in : messages) {
    if (in.ep == *current_) {
      received.insert(received.end(), std::make_move_iterator(in.seqs.begin()),
                      std::make_move_iterator(in.seqs.end()));
    } else {
      ++discarded_;  // lower-priority execution: message dropped
    }
  }
  if (received.empty()) return;

  auto to_send = state_->step(g, std::move(received));
  overflow_ = overflow_ || state_->overflowed();

  if (g == half_) {
    if (state_->rejected() && witness_ids_.empty()) {
      witness_ids_ = state_->witness_cycle_ids();
    }
    return;
  }
  if (!to_send.empty()) {
    max_sent_by_round_[g] = std::max(max_sent_by_round_[g], to_send.size());
    broadcast_sequences(ctx, to_send);
  }
}

void TesterProgram::broadcast_sequences(congest::Context& ctx, std::span<const IdSeq> seqs) {
  congest::MessageWriter w;
  w.put_u64(kTagSequences);
  w.put_u64(current_->rank);
  w.put_u64(current_->u);
  w.put_u64(current_->v);
  write_sequences(w, seqs);
  const congest::Message msg = w.finish();
  ctx.send_all(msg);
}

namespace {

class TesterDetector final : public Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "tester"; }

  [[nodiscard]] const DetectorCapabilities& capabilities() const noexcept override {
    // max_k = 64 is the historical scenario-axis bound (wire-format IdSeqs
    // and Phase-2 state grow with k; 64 keeps them comfortably bounded),
    // not an algorithmic limit — the same cap the k axis always enforced.
    static constexpr DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .uses_epsilon = true,
        .summary = "Theorem-1 amplified property tester (FO17): ⌈e²·ln3/ε⌉ "
                   "prioritized Phase-2 repetitions"};
    return caps;
  }

  [[nodiscard]] std::span<const CounterDef> counters() const noexcept override {
    // Aggregated but not emitted: pre-registry tester cells carry no
    // counter fields and their JSONL bytes are pinned by golden CI.
    static constexpr CounterDef defs[] = {
        {"switches_total", CounterKind::kSum, /*emit=*/false},
        {"discarded_total", CounterKind::kSum, /*emit=*/false},
    };
    return defs;
  }

  [[nodiscard]] Verdict run(congest::Simulator& sim,
                            const DetectorOptions& options) const override {
    DECYCLE_CHECK_MSG(options.k >= 3, "k must be at least 3");
    const graph::Graph& g = sim.graph();
    const graph::IdAssignment& ids = sim.ids();
    Verdict verdict;
    verdict.repetitions =
        options.repetitions != 0 ? options.repetitions : recommended_repetitions(options.epsilon);
    const DetectParams params = detect_params(options);

    sim.reset([&](graph::Vertex v) {
      return std::make_unique<TesterProgram>(params, verdict.repetitions, options.seed,
                                             g.num_vertices(), ids.id_of(v));
    });

    // Round budget audit: each repetition occupies exactly rep_len =
    // ⌊k/2⌋+2 rounds (phase 0 ranks, phase 1 selection, ⌊k/2⌋ Phase-2
    // rounds), so the last possible activity is round
    // repetitions·rep_len − 1; the +4 is delivery slack. A run that fails to
    // quiesce under this cap was truncated mid-Phase-2 — surfaced via
    // Verdict::truncated rather than silently under-reporting.
    verdict.stats = sim.run(simulator_options(
        options, verdict.repetitions * (static_cast<std::uint64_t>(options.k / 2) + 2) + 4));
    verdict.truncated = !verdict.stats.halted;

    std::uint64_t switches = 0;
    std::uint64_t discarded = 0;
    sim.for_each_program<TesterProgram>([&](graph::Vertex, const TesterProgram& prog) {
      verdict.overflow = verdict.overflow || prog.overflowed();
      switches += prog.switches();
      discarded += prog.discarded_messages();
      for (const std::size_t count : prog.max_sent_by_round()) {
        verdict.max_bundle_sequences = std::max(verdict.max_bundle_sequences, count);
      }
      if (prog.rejected()) {
        verdict.accepted = false;
        verdict.rejecting_nodes += 1;
        if (verdict.witness.empty()) {
          verdict.witness = validated_witness_vertices(g, ids, prog.witness_ids());
        }
      }
    });
    verdict.counters = {switches, discarded};
    return verdict;
  }
};

}  // namespace

std::unique_ptr<Detector> make_tester_detector() { return std::make_unique<TesterDetector>(); }

}  // namespace decycle::core
