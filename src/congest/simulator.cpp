#include "congest/simulator.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace decycle::congest {

namespace {

constexpr std::uint64_t kNoWakeup = Context::kNoWakeup;
constexpr std::uint64_t kNeverStamp = ~std::uint64_t{0};

/// Receiver's port for neighbor \p from (adjacency is sorted). The
/// reference loop's lookup; run() uses the precomputed reverse-port table.
std::uint32_t port_of(const graph::Graph& g, Vertex receiver, Vertex from) {
  const auto nb = g.neighbors(receiver);
  const auto it = std::lower_bound(nb.begin(), nb.end(), from);
  DECYCLE_CHECK(it != nb.end() && *it == from);
  return static_cast<std::uint32_t>(it - nb.begin());
}

}  // namespace

/// Per-run machinery for the arena delivery path. All buffers are sized
/// once (at first run) and reused across rounds and runs, so a steady-state
/// round performs no heap allocation. See DESIGN.md §4 for the architecture.
struct SimRuntime {
  static constexpr std::size_t kWheelSize = 64;

  /// The reusable step Context plus the outbox every stepped node appends
  /// to (metadata and payloads in lockstep parallel arrays), in ascending
  /// sender order.
  Context ctx;
  std::vector<Context::OutMeta> meta;
  std::vector<Message> payload;

  // Double-buffered flat envelope arena: round r's inboxes live in
  // arena[r & 1] as contiguous per-receiver segments, already sorted by
  // receiver port (counting placement in ascending sender order). Each
  // buffer grows lazily to the traffic high-water mark (bounded by the 2m
  // sender-port links), so sparse event-driven runs never pay for
  // dense-case capacity.
  std::array<std::vector<Envelope>, 2> arena;
  std::vector<std::uint64_t> inbox_stamp;  ///< round whose step may read offset/count
  std::vector<std::uint32_t> count;        ///< per-receiver envelope count
  std::vector<std::uint32_t> fill;         ///< placement cursor
  std::vector<std::size_t> offset;         ///< per-receiver arena segment start

  std::vector<Vertex> active;
  std::vector<Vertex> next_active;
  std::vector<Vertex> merge_buf;
  std::vector<Vertex> wake_scratch;

  // Bucketed timer wheel for near wake-ups (< kWheelSize rounds ahead) with
  // a min-heap for far ones. At drain time every entry in a bucket targets
  // exactly the current round (targets within the horizon occupy distinct
  // buckets); entries carry their round so that invariant is checked.
  std::array<std::vector<std::pair<std::uint64_t, Vertex>>, kWheelSize> wheel;
  std::vector<std::pair<std::uint64_t, Vertex>> far_heap;
  std::size_t pending_wakeups = 0;

  SimRuntime(const graph::Graph& g, const graph::IdAssignment& ids,
             const std::uint32_t* rev_ports)
      : ctx(g, ids, rev_ports) {
    const Vertex n = g.num_vertices();
    inbox_stamp.resize(n);
    count.resize(n);
    fill.resize(n);
    offset.resize(n);
    active.reserve(n);
    next_active.reserve(n);
    merge_buf.reserve(n);
    wake_scratch.reserve(n);
  }

  void begin_run(Vertex n) {
    std::fill(inbox_stamp.begin(), inbox_stamp.end(), kNeverStamp);
    // The counting pass relies on count[v] == 0 outside the current round's
    // receiver set; a previous run capped by max_rounds can leave
    // undelivered counts behind.
    std::fill(count.begin(), count.end(), 0);
    for (auto& bucket : wheel) bucket.clear();
    far_heap.clear();
    pending_wakeups = 0;
    active.resize(n);
    std::iota(active.begin(), active.end(), Vertex{0});
    next_active.clear();
  }

  void schedule_wakeup(Vertex v, std::uint64_t target, std::uint64_t now) {
    if (target - now < kWheelSize) {
      wheel[target % kWheelSize].emplace_back(target, v);
    } else {
      far_heap.emplace_back(target, v);
      std::push_heap(far_heap.begin(), far_heap.end(), std::greater<>{});
    }
    ++pending_wakeups;
  }

  /// Moves every wake-up scheduled for \p round into wake_scratch
  /// (unsorted, possibly with duplicates).
  void drain_due_wakeups(std::uint64_t round) {
    wake_scratch.clear();
    auto& bucket = wheel[round % kWheelSize];
    for (const auto& [target, v] : bucket) {
      DECYCLE_CHECK_MSG(target == round, "timer wheel bucket holds a foreign round");
      wake_scratch.push_back(v);
    }
    pending_wakeups -= bucket.size();
    bucket.clear();
    while (!far_heap.empty() && far_heap.front().first == round) {
      wake_scratch.push_back(far_heap.front().second);
      std::pop_heap(far_heap.begin(), far_heap.end(), std::greater<>{});
      far_heap.pop_back();
      --pending_wakeups;
    }
  }

  /// Earliest round with a pending wake-up strictly after \p round.
  /// Requires pending_wakeups > 0. O(kWheelSize) — only used on the rare
  /// fast-forward over fully idle rounds.
  [[nodiscard]] std::uint64_t min_pending_round() const {
    std::uint64_t best = far_heap.empty() ? kNoWakeup : far_heap.front().first;
    for (const auto& bucket : wheel) {
      if (!bucket.empty()) best = std::min(best, bucket.front().first);
    }
    DECYCLE_CHECK_MSG(best != kNoWakeup, "no pending wakeup to fast-forward to");
    return best;
  }
};

Simulator::Simulator(const graph::Graph& g, const graph::IdAssignment& ids,
                     const ProgramFactory& factory)
    : Simulator(g, ids) {
  reset(factory);
}

Simulator::Simulator(const graph::Graph& g, const graph::IdAssignment& ids,
                     const CommModel& model)
    : graph_(&g), ids_(&ids), model_(&model) {
  DECYCLE_CHECK_MSG(ids.num_vertices() == g.num_vertices(),
                    "ID assignment size does not match graph");
  if (model.kind() == CommModelKind::kClique) link_graph_ = graph::complete(g.num_vertices());
  comm_graph_ = link_graph_.has_value() ? &*link_graph_ : &g;
  const graph::Graph& cg = *comm_graph_;
  const Vertex n = cg.num_vertices();

  // CSR reverse-port table over the COMMUNICATION graph: visiting senders u
  // in ascending order visits each receiver v's neighbors in ascending
  // order too, so a running cursor per receiver yields u's rank in v's
  // sorted adjacency — no searches.
  adj_offsets_.resize(n + std::size_t{1});
  adj_offsets_[0] = 0;
  for (Vertex v = 0; v < n; ++v) adj_offsets_[v + 1] = adj_offsets_[v] + cg.degree(v);
  rev_ports_.resize(adj_offsets_[n]);
  std::vector<std::uint32_t> cursor(n, 0);
  for (Vertex u = 0; u < n; ++u) {
    const auto nb = cg.neighbors(u);
    for (std::size_t p = 0; p < nb.size(); ++p) {
      rev_ports_[adj_offsets_[u] + p] = cursor[nb[p]]++;
    }
  }
}

Simulator::~Simulator() = default;

void Simulator::reset(const ProgramFactory& factory) {
  const Vertex n = graph_->num_vertices();
  // Route program blocks through this simulator's pool: the assignments
  // below free the previous trial's programs into the free lists the
  // factory's new instances immediately reuse, so a steady-state reset
  // allocates nothing (programs whose own members allocate still pay for
  // those members — the pool covers the object blocks).
  const util::PoolScope pool_scope(&program_pool_);
  programs_.resize(n);  // keeps capacity across resets
  try {
    for (Vertex v = 0; v < n; ++v) {
      programs_[v] = factory(v);
      DECYCLE_CHECK_MSG(programs_[v] != nullptr, "program factory returned null");
    }
  } catch (...) {
    // Never leave a half-programmed simulator behind: fall back to the
    // needs-reset state so a later run() refuses instead of dereferencing
    // the null entries.
    programs_.clear();
    throw;
  }
}

void Simulator::check_programmed() const {
  DECYCLE_CHECK_MSG(!programs_.empty() || graph_->num_vertices() == 0,
                    "Simulator::run before reset(): topology-only simulator has no programs");
}

RunStats Simulator::run(const Options& options) {
  check_programmed();
  const Vertex n = graph_->num_vertices();
  if (runtime_ == nullptr) {
    runtime_ = std::make_unique<SimRuntime>(*comm_graph_, *ids_, rev_ports_.data());
  }
  SimRuntime& rt = *runtime_;
  rt.begin_run(n);

  RunStats stats;
  std::uint64_t round = 0;

  while (round <= options.max_rounds) {
    // --- Fold wake-ups due this round into the (sorted, unique) active set.
    rt.drain_due_wakeups(round);
    if (!rt.wake_scratch.empty()) {
      std::sort(rt.wake_scratch.begin(), rt.wake_scratch.end());
      rt.wake_scratch.erase(std::unique(rt.wake_scratch.begin(), rt.wake_scratch.end()),
                            rt.wake_scratch.end());
      rt.merge_buf.clear();
      std::set_union(rt.active.begin(), rt.active.end(), rt.wake_scratch.begin(),
                     rt.wake_scratch.end(), std::back_inserter(rt.merge_buf));
      rt.active.swap(rt.merge_buf);
    }

    if (rt.active.empty()) {
      if (rt.pending_wakeups == 0) {
        stats.halted = true;
        break;
      }
      round = rt.min_pending_round();  // fast-forward over idle rounds
      continue;
    }

    // --- Step every active node in ascending vertex order into the one
    // outbox, so the outbox is in ascending sender order. Each step
    // schedules its wake-up and releases its consumed inbox: count[v] must
    // return to 0 once v's step read its envelope span, because the
    // counting pass below relies on count[v] == 0 outside the current
    // round's receiver set.
    const std::vector<Envelope>& in_arena = rt.arena[round & 1];
    rt.meta.clear();
    rt.payload.clear();
    for (const Vertex v : rt.active) {
      std::span<const Envelope> inbox;
      if (rt.inbox_stamp[v] == round) {
        inbox = {in_arena.data() + rt.offset[v], rt.count[v]};
        rt.count[v] = 0;
      }
      rt.ctx.reset(v, round, adj_offsets_[v], &rt.meta, &rt.payload);
      programs_[v]->on_round(rt.ctx, inbox);
      if (rt.ctx.wakeup_ != kNoWakeup) rt.schedule_wakeup(v, rt.ctx.wakeup_, round);
    }

    // --- Delivery. The counting pass counts envelopes per receiver (and
    // applies the drop adversary, marking entries); the receivers, sorted,
    // get their arena segments; the placement pass fills them by counting
    // placement. Ascending sender order within each receiver's segment
    // yields ascending receiver ports, so inboxes are born sorted.
    const std::uint64_t next_stamp = round + 1;
    RoundStats rs;
    rs.round = round;
    rs.active_nodes = rt.active.size();
    rt.next_active.clear();
    for (Context::OutMeta& e : rt.meta) {
      rs.messages += 1;
      rs.bits += e.bits;
      rs.max_link_bits = std::max(rs.max_link_bits, e.bits);
      // The message was *sent* either way (it occupies the link and counts
      // towards the stats); the adversary removes it before delivery.
      if (options.drop && options.drop(round, e.from, e.dest)) {
        e.dropped = 1;
        stats.dropped_messages += 1;
        continue;
      }
      if (rt.inbox_stamp[e.dest] != next_stamp) {
        rt.inbox_stamp[e.dest] = next_stamp;
        rt.next_active.push_back(e.dest);
      }
      rt.count[e.dest] += 1;
    }
    std::sort(rt.next_active.begin(), rt.next_active.end());

    std::size_t cum = 0;
    for (const Vertex v : rt.next_active) {
      rt.offset[v] = cum;
      rt.fill[v] = 0;
      cum += rt.count[v];
    }
    std::vector<Envelope>& out_arena = rt.arena[next_stamp & 1];
    if (out_arena.size() < cum) out_arena.resize(std::max(cum, 2 * out_arena.size()));
    for (std::size_t j = 0; j < rt.meta.size(); ++j) {
      const Context::OutMeta& e = rt.meta[j];
      if (e.dropped != 0) continue;
      Envelope& slot = out_arena[rt.offset[e.dest] + rt.fill[e.dest]++];
      slot.port = e.rport;
      slot.payload = std::move(rt.payload[j]);
    }

    stats.rounds_executed += 1;
    stats.total_messages += rs.messages;
    stats.total_bits += rs.bits;
    stats.max_link_bits = std::max(stats.max_link_bits, rs.max_link_bits);
    stats.max_active_nodes = std::max(stats.max_active_nodes, rs.active_nodes);
    if (options.record_rounds) stats.per_round.push_back(rs);

    rt.active.swap(rt.next_active);
    ++round;
  }

  return stats;
}

// ---------------------------------------------------------------------------
// Reference loop (see run_reference in simulator.hpp): the semantics oracle
// the tests hold run() to, and m2's baseline.
// ---------------------------------------------------------------------------

namespace {

struct ReferenceStepResult {
  std::vector<Context::OutMeta> meta;
  std::vector<Message> payload;
  std::uint64_t wakeup = kNoWakeup;
};

}  // namespace

RunStats Simulator::run_reference(const Options& options) {
  check_programmed();
  const Vertex n = graph_->num_vertices();
  std::vector<std::vector<Envelope>> inbox(n);
  std::map<std::uint64_t, std::vector<Vertex>> wakeups;

  std::vector<Vertex> active(n);
  std::iota(active.begin(), active.end(), Vertex{0});

  RunStats stats;
  std::uint64_t round = 0;

  while (round <= options.max_rounds) {
    if (const auto it = wakeups.find(round); it != wakeups.end()) {
      active.insert(active.end(), it->second.begin(), it->second.end());
      std::sort(active.begin(), active.end());
      active.erase(std::unique(active.begin(), active.end()), active.end());
      wakeups.erase(it);
    }

    if (active.empty()) {
      if (wakeups.empty()) {
        stats.halted = true;
        break;
      }
      round = wakeups.begin()->first;  // fast-forward over idle rounds
      continue;
    }

    std::vector<ReferenceStepResult> results(active.size());
    Context ctx(*comm_graph_, *ids_, nullptr);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Vertex v = active[i];
      ctx.reset(v, round, adj_offsets_[v], &results[i].meta, &results[i].payload);
      programs_[v]->on_round(ctx, inbox[v]);
      results[i].wakeup = ctx.wakeup_;
    }

    // Consumed inboxes must be cleared before any delivery: an active node
    // may both read mail this round and receive fresh mail for the next one.
    for (const Vertex v : active) inbox[v].clear();

    RoundStats rs;
    rs.round = round;
    rs.active_nodes = active.size();
    std::vector<Vertex> next_active;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Vertex from = active[i];
      for (std::size_t j = 0; j < results[i].meta.size(); ++j) {
        const Context::OutMeta& out = results[i].meta[j];
        const Vertex dest = out.dest;
        rs.messages += 1;
        rs.bits += out.bits;
        rs.max_link_bits = std::max(rs.max_link_bits, out.bits);
        if (options.drop && options.drop(round, from, dest)) {
          stats.dropped_messages += 1;
          continue;
        }
        const std::uint32_t rport = port_of(*comm_graph_, dest, from);
        if (inbox[dest].empty()) next_active.push_back(dest);
        inbox[dest].push_back(Envelope{rport, std::move(results[i].payload[j])});
      }
      if (results[i].wakeup != kNoWakeup) {
        wakeups[results[i].wakeup].push_back(from);
      }
    }
    std::sort(next_active.begin(), next_active.end());
    for (const Vertex v : next_active) {
      std::sort(inbox[v].begin(), inbox[v].end(),
                [](const Envelope& a, const Envelope& b) { return a.port < b.port; });
    }

    stats.rounds_executed += 1;
    stats.total_messages += rs.messages;
    stats.total_bits += rs.bits;
    stats.max_link_bits = std::max(stats.max_link_bits, rs.max_link_bits);
    stats.max_active_nodes = std::max(stats.max_active_nodes, rs.active_nodes);
    if (options.record_rounds) stats.per_round.push_back(rs);

    active = std::move(next_active);
    ++round;
  }

  return stats;
}

}  // namespace decycle::congest
