#include "congest/simulator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <numeric>

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
/// once (at first run, or lazily on first use for pool-dependent state) and
/// reused across rounds and runs, so a steady-state round performs no heap
/// allocation. See DESIGN.md §4 for the architecture.
struct SimRuntime {
  static constexpr std::size_t kWheelSize = 64;
  /// Upper bound on step chunks / delivery shards; bounds the number of
  /// persistent per-chunk buffers regardless of pool size.
  static constexpr std::size_t kMaxChunks = 32;
  /// Receiver-group granularity for the parallel delivery passes: groups
  /// are the work-stealing unit of pass B and the resolution of the
  /// cost-weighted split, so ~1024 of them keep both the split accurate and
  /// the per-chunk group tables tiny (kMaxChunks * kMaxGroups counters).
  static constexpr std::size_t kMaxGroups = 1024;

  /// One persistent step-execution lane: a reusable Context plus the outbox
  /// all nodes stepped by this lane append to (metadata and payloads in
  /// lockstep parallel arrays), and the chunk's slice of the parallel
  /// delivery state — per-receiver-group counters and the counting-sort
  /// scatter of its own outbox (bucket holds meta indices ordered by
  /// receiver group, preserving outbox order within a group).
  struct ChunkState {
    Context ctx;
    std::vector<Context::OutMeta> meta;
    std::vector<Message> payload;

    std::vector<std::uint32_t> group_env;     ///< non-dropped envelopes per group
    std::vector<std::uint32_t> group_recv;    ///< first-touched receivers per group
    std::vector<std::uint32_t> group_start;   ///< bucket prefix (kMaxGroups+1)
    std::vector<std::uint32_t> group_cursor;  ///< scatter cursors (scratch)
    std::vector<std::uint32_t> bucket;        ///< meta indices, grouped
    std::size_t messages = 0;                 ///< round stats, reduced in chunk order
    std::uint64_t bits = 0;
    std::uint64_t max_link_bits = 0;
    std::size_t dropped = 0;

    ChunkState(const graph::Graph& g, const graph::IdAssignment& ids,
               const std::uint32_t* rev_ports, const CommModel& model)
        : ctx(g, ids, rev_ports, model) {}
  };

  /// Per-shard delivery accumulator; reduced into RoundStats in fixed shard
  /// order so statistics are bit-identical for any thread count.
  struct ShardAcc {
    std::vector<Vertex> receivers;  ///< first-message receivers, sorted at pass end
    std::uint64_t bits = 0;
    std::uint64_t max_link_bits = 0;
    std::size_t messages = 0;
    std::size_t dropped = 0;
  };

  // Double-buffered flat envelope arena: round r's inboxes live in
  // arena[r & 1] as contiguous per-receiver segments, already sorted by
  // receiver port (counting placement in ascending sender order). Each
  // buffer grows lazily to the traffic high-water mark (bounded by the 2m
  // directed links), so sparse event-driven runs never pay for dense-case
  // capacity.
  std::array<std::vector<Envelope>, 2> arena;
  std::vector<std::uint64_t> inbox_stamp;  ///< round whose step may read offset/count
  std::vector<std::uint32_t> count;        ///< per-receiver envelope count
  std::vector<std::uint32_t> fill;         ///< pass-B placement cursor
  std::vector<std::size_t> offset;         ///< per-receiver arena segment start

  std::vector<Vertex> active;
  std::vector<Vertex> next_active;
  std::vector<Vertex> merge_buf;
  std::vector<Vertex> wake_scratch;
  std::vector<std::uint64_t> wakeup_rounds;  ///< per active index, from the step phase

  std::vector<std::unique_ptr<ChunkState>> chunks;
  std::vector<ShardAcc> shards;

  // Receiver-group tables for the parallel delivery path: vertex v belongs
  // to group v >> group_shift (at most kMaxGroups groups). The serial
  // mid-phase folds the per-chunk group counters into these and prefix-sums
  // them, giving every group its arena base (env) and next_active base
  // (recv) — pass B then processes groups independently in any order while
  // producing output identical to the serial sorted-receiver sweep.
  std::uint32_t group_shift = 0;
  std::size_t num_groups = 0;
  std::vector<std::uint64_t> group_env;
  std::vector<std::uint64_t> group_recv;
  std::vector<std::uint64_t> group_env_base;
  std::vector<std::uint64_t> group_recv_base;
  std::vector<std::uint64_t> group_weight;
  std::vector<std::uint64_t> chunk_weight;  ///< per-chunk cost for weighted splits

  // Bucketed timer wheel for near wake-ups (< kWheelSize rounds ahead) with
  // a min-heap for far ones. At drain time every entry in a bucket targets
  // exactly the current round (targets within the horizon occupy distinct
  // buckets); entries carry their round so that invariant is checked.
  std::array<std::vector<std::pair<std::uint64_t, Vertex>>, kWheelSize> wheel;
  std::vector<std::pair<std::uint64_t, Vertex>> far_heap;
  std::size_t pending_wakeups = 0;

  void size_for(Vertex n) {
    inbox_stamp.resize(n);
    count.resize(n);
    fill.resize(n);
    offset.resize(n);
    active.reserve(n);
    next_active.reserve(n);
    merge_buf.reserve(n);
    wake_scratch.reserve(n);
    wakeup_rounds.reserve(n);

    group_shift = 0;
    while (n != 0 && ((std::size_t{n} - 1) >> group_shift) + 1 > kMaxGroups) ++group_shift;
    num_groups = n == 0 ? 0 : ((std::size_t{n} - 1) >> group_shift) + 1;
    group_env.resize(num_groups);
    group_recv.resize(num_groups);
    group_env_base.resize(num_groups);
    group_recv_base.resize(num_groups);
    group_weight.resize(num_groups);
    chunk_weight.resize(kMaxChunks);
  }

  void begin_run(Vertex n) {
    std::fill(inbox_stamp.begin(), inbox_stamp.end(), kNeverStamp);
    // The parallel counting pass relies on count[v] == 0 outside the
    // current round's receiver set; a previous run capped by max_rounds can
    // leave undelivered counts behind.
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

  ChunkState& chunk(std::size_t i, const graph::Graph& g, const graph::IdAssignment& ids,
                    const std::uint32_t* rev_ports, const CommModel& model) {
    while (chunks.size() <= i) {
      chunks.push_back(std::make_unique<ChunkState>(g, ids, rev_ports, model));
    }
    return *chunks[i];
  }
};

Simulator::Simulator(const graph::Graph& g, const graph::IdAssignment& ids,
                     const CommModel& model, const ProgramFactory& factory)
    : Simulator(g, ids, model) {
  reset(factory);
}

Simulator::Simulator(const graph::Graph& g, const graph::IdAssignment& ids,
                     const ProgramFactory& factory)
    : Simulator(g, ids, CommModel::congest(), factory) {}

Simulator::Simulator(const graph::Graph& g, const graph::IdAssignment& ids)
    : Simulator(g, ids, CommModel::congest()) {}

Simulator::Simulator(const graph::Graph& g, const graph::IdAssignment& ids,
                     const CommModel& model)
    : graph_(&g), ids_(&ids), model_(&model) {
  DECYCLE_CHECK_MSG(ids.num_vertices() == g.num_vertices(),
                    "ID assignment size does not match graph");
  link_graph_ = model.build_links(g);
  comm_graph_ = link_graph_.has_value() ? &*link_graph_ : &g;
  DECYCLE_CHECK_MSG(comm_graph_->num_vertices() == g.num_vertices(),
                    "communication model changed the vertex set");
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
    runtime_ = std::make_unique<SimRuntime>();
    runtime_->size_for(n);
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

    // --- Step all active nodes (parallel when worthwhile). Chunks write to
    // persistent per-chunk outboxes; iterating chunks in index order later
    // recovers the global ascending-sender order, whatever the chunking.
    const std::size_t num_active = rt.active.size();
    std::size_t num_chunks = 1;
    if (options.pool != nullptr && num_active >= options.parallel_threshold) {
      num_chunks = std::min({SimRuntime::kMaxChunks, 2 * options.pool->size(), num_active});
    }
    for (std::size_t c = 0; c < num_chunks; ++c) {
      rt.chunk(c, *comm_graph_, *ids_, rev_ports_.data(), *model_);
    }
    const std::size_t chunk_len = (num_active + num_chunks - 1) / num_chunks;
    rt.wakeup_rounds.resize(num_active);

    const std::vector<Envelope>& in_arena = rt.arena[round & 1];
    const auto step_chunk = [&](std::size_t c) {
      SimRuntime::ChunkState& cs = *rt.chunks[c];
      cs.meta.clear();
      cs.payload.clear();
      const std::size_t begin = c * chunk_len;
      const std::size_t end = std::min(num_active, begin + chunk_len);
      for (std::size_t i = begin; i < end; ++i) {
        const Vertex v = rt.active[i];
        std::span<const Envelope> inbox;
        if (rt.inbox_stamp[v] == round) {
          inbox = {in_arena.data() + rt.offset[v], rt.count[v]};
        }
        cs.ctx.reset(v, round, adj_offsets_[v], &cs.meta, &cs.payload);
        programs_[v]->on_round(cs.ctx, inbox);
        rt.wakeup_rounds[i] = cs.ctx.wakeup_;
      }
    };
    if (num_chunks > 1) {
      // Cost-weighted split: a chunk's step cost tracks the mail it has to
      // digest, not how many nodes it holds — weight each chunk by its
      // inbox envelope total (plus 1 per node for mailless wake-ups).
      std::fill_n(rt.chunk_weight.begin(), num_chunks, 0);
      for (std::size_t i = 0; i < num_active; ++i) {
        const Vertex v = rt.active[i];
        const std::uint64_t mail = rt.inbox_stamp[v] == round ? rt.count[v] : 0;
        rt.chunk_weight[i / chunk_len] += mail + 1;
      }
      options.pool->for_weighted(num_chunks, rt.chunk_weight.data(), step_chunk);
    } else {
      step_chunk(0);
    }

    // --- Wake-up scheduling (serial; ascending sender order), fused with
    // releasing consumed inboxes: count[v] must return to 0 once v's step
    // read its envelope span, because the parallel counting pass below
    // relies on count[v] == 0 outside the current round's receiver set.
    for (std::size_t i = 0; i < num_active; ++i) {
      const Vertex v = rt.active[i];
      if (rt.inbox_stamp[v] == round) rt.count[v] = 0;
      if (rt.wakeup_rounds[i] != kNoWakeup) {
        rt.schedule_wakeup(v, rt.wakeup_rounds[i], round);
      }
    }

    // --- Delivery. Pass A counts envelopes per receiver (and applies the
    // drop adversary, marking entries); a serial mid-phase assigns arena
    // segments; pass B places envelopes by counting placement. Ascending
    // sender order within each receiver's segment yields ascending receiver
    // ports, so inboxes are born sorted.
    //
    // The parallel variant never range-filters: pass A runs per sender
    // chunk over that chunk's own outbox only (atomic counts, per-group
    // tallies, counting-sort scatter), and pass B runs per receiver group
    // with work-stolen, envelope-weighted scheduling. Both produce output
    // bit-identical to the serial sweep: group prefix sums pin every
    // receiver's arena segment and next_active slot to its global sorted
    // position, and chunk-order placement within a group preserves
    // ascending sender order. The n/64 floor keeps the group sweep (which
    // touches every vertex of a non-empty group) amortized against traffic.
    std::size_t total_out = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) total_out += rt.chunks[c]->meta.size();

    const std::uint64_t next_stamp = round + 1;
    const bool parallel_delivery =
        options.pool != nullptr &&
        total_out >= std::max<std::size_t>(options.parallel_threshold, n / 64);

    RoundStats rs;
    rs.round = round;
    rs.active_nodes = num_active;
    std::vector<Envelope>& out_arena = rt.arena[next_stamp & 1];

    if (!parallel_delivery) {
      if (rt.shards.empty()) rt.shards.emplace_back();
      SimRuntime::ShardAcc& acc = rt.shards[0];
      acc.receivers.clear();
      acc.bits = 0;
      acc.max_link_bits = 0;
      acc.messages = 0;
      acc.dropped = 0;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        for (Context::OutMeta& e : rt.chunks[c]->meta) {
          acc.messages += 1;
          acc.bits += e.bits;
          acc.max_link_bits = std::max(acc.max_link_bits, e.bits);
          // The message was *sent* either way (it occupies the link and
          // counts towards the stats); the adversary removes it before
          // delivery.
          if (options.drop && options.drop(round, e.from, e.dest)) {
            e.dropped = 1;
            acc.dropped += 1;
            continue;
          }
          if (rt.inbox_stamp[e.dest] != next_stamp) {
            rt.inbox_stamp[e.dest] = next_stamp;
            acc.receivers.push_back(e.dest);
          }
          rt.count[e.dest] += 1;
        }
      }
      std::sort(acc.receivers.begin(), acc.receivers.end());

      rt.next_active.clear();
      std::size_t cum = 0;
      for (const Vertex v : acc.receivers) {
        rt.offset[v] = cum;
        rt.fill[v] = 0;
        cum += rt.count[v];
        rt.next_active.push_back(v);
      }
      rs.messages += acc.messages;
      rs.bits += acc.bits;
      rs.max_link_bits = std::max(rs.max_link_bits, acc.max_link_bits);
      stats.dropped_messages += acc.dropped;

      if (out_arena.size() < cum) out_arena.resize(std::max(cum, 2 * out_arena.size()));
      for (std::size_t c = 0; c < num_chunks; ++c) {
        SimRuntime::ChunkState& cs = *rt.chunks[c];
        for (std::size_t j = 0; j < cs.meta.size(); ++j) {
          const Context::OutMeta& e = cs.meta[j];
          if (e.dropped != 0) continue;
          Envelope& slot = out_arena[rt.offset[e.dest] + rt.fill[e.dest]++];
          slot.port = e.rport;
          slot.payload = std::move(cs.payload[j]);
        }
      }
    } else {
      const std::size_t groups = rt.num_groups;
      const std::uint32_t shift = rt.group_shift;

      // Pass A, parallel over sender chunks (each scans its own outbox
      // only), weighted by outbox size.
      for (std::size_t c = 0; c < num_chunks; ++c) {
        rt.chunk_weight[c] = rt.chunks[c]->meta.size() + 1;
      }
      const auto count_chunk = [&](std::size_t c) {
        SimRuntime::ChunkState& cs = *rt.chunks[c];
        cs.messages = 0;
        cs.bits = 0;
        cs.max_link_bits = 0;
        cs.dropped = 0;
        cs.group_env.assign(groups, 0);
        cs.group_recv.assign(groups, 0);
        for (Context::OutMeta& e : cs.meta) {
          cs.messages += 1;
          cs.bits += e.bits;
          cs.max_link_bits = std::max(cs.max_link_bits, e.bits);
          if (options.drop && options.drop(round, e.from, e.dest)) {
            e.dropped = 1;
            cs.dropped += 1;
            continue;
          }
          const std::size_t g = e.dest >> shift;
          ++cs.group_env[g];
          // First toucher of a receiver claims it for its group tally;
          // atomicity makes the claim unique across chunks.
          const std::uint32_t prev =
              std::atomic_ref<std::uint32_t>(rt.count[e.dest])
                  .fetch_add(1, std::memory_order_relaxed);
          if (prev == 0) ++cs.group_recv[g];
        }
        // Counting-sort scatter: bucket the chunk's surviving meta indices
        // by receiver group (stable, so outbox order survives per group).
        cs.group_start.resize(groups + 1);
        cs.group_start[0] = 0;
        for (std::size_t g = 0; g < groups; ++g) {
          cs.group_start[g + 1] = cs.group_start[g] + cs.group_env[g];
        }
        cs.group_cursor.assign(cs.group_start.begin(), cs.group_start.end() - 1);
        if (cs.bucket.size() < cs.group_start[groups]) cs.bucket.resize(cs.group_start[groups]);
        for (std::size_t j = 0; j < cs.meta.size(); ++j) {
          const Context::OutMeta& e = cs.meta[j];
          if (e.dropped != 0) continue;
          cs.bucket[cs.group_cursor[e.dest >> shift]++] = static_cast<std::uint32_t>(j);
        }
      };
      if (num_chunks > 1) {
        options.pool->for_weighted(num_chunks, rt.chunk_weight.data(), count_chunk);
      } else {
        count_chunk(0);
      }

      // Serial mid-phase: fold per-chunk group tallies, prefix-sum them
      // into arena / next_active bases, reduce stats in fixed chunk order.
      std::fill(rt.group_env.begin(), rt.group_env.end(), 0);
      std::fill(rt.group_recv.begin(), rt.group_recv.end(), 0);
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const SimRuntime::ChunkState& cs = *rt.chunks[c];
        for (std::size_t g = 0; g < groups; ++g) {
          rt.group_env[g] += cs.group_env[g];
          rt.group_recv[g] += cs.group_recv[g];
        }
        rs.messages += cs.messages;
        rs.bits += cs.bits;
        rs.max_link_bits = std::max(rs.max_link_bits, cs.max_link_bits);
        stats.dropped_messages += cs.dropped;
      }
      std::size_t cum = 0;
      std::size_t num_receivers = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        rt.group_env_base[g] = cum;
        rt.group_recv_base[g] = num_receivers;
        rt.group_weight[g] = rt.group_env[g];
        cum += rt.group_env[g];
        num_receivers += rt.group_recv[g];
      }
      if (out_arena.size() < cum) out_arena.resize(std::max(cum, 2 * out_arena.size()));
      rt.next_active.resize(num_receivers);  // within reserve(n), no allocation

      // Pass B, parallel over receiver groups: sweep the group's vertex
      // span in ascending order (stamps, arena offsets, next_active slots —
      // all landing exactly where the serial sweep would put them), then
      // place envelopes chunk-by-chunk so each receiver's segment fills in
      // ascending sender order.
      const auto place_group = [&](std::size_t g) {
        if (rt.group_env[g] == 0) return;
        const Vertex lo = static_cast<Vertex>(std::size_t{g} << shift);
        const Vertex hi =
            static_cast<Vertex>(std::min<std::size_t>(n, (std::size_t{g} + 1) << shift));
        std::size_t env_cursor = rt.group_env_base[g];
        std::size_t recv_cursor = rt.group_recv_base[g];
        for (Vertex v = lo; v < hi; ++v) {
          const std::uint32_t cnt = rt.count[v];
          if (cnt == 0) continue;
          rt.inbox_stamp[v] = next_stamp;
          rt.offset[v] = env_cursor;
          rt.fill[v] = 0;
          env_cursor += cnt;
          rt.next_active[recv_cursor++] = v;
        }
        for (std::size_t c = 0; c < num_chunks; ++c) {
          SimRuntime::ChunkState& cs = *rt.chunks[c];
          const std::uint32_t bucket_end = cs.group_start[g + 1];
          for (std::uint32_t k = cs.group_start[g]; k < bucket_end; ++k) {
            const std::uint32_t j = cs.bucket[k];
            const Context::OutMeta& e = cs.meta[j];
            Envelope& slot = out_arena[rt.offset[e.dest] + rt.fill[e.dest]++];
            slot.port = e.rport;
            slot.payload = std::move(cs.payload[j]);
          }
        }
      };
      options.pool->for_weighted(groups, rt.group_weight.data(), place_group);
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
    const auto step_range = [&](std::size_t begin, std::size_t end) {
      Context ctx(*comm_graph_, *ids_, nullptr, *model_);
      for (std::size_t i = begin; i < end; ++i) {
        const Vertex v = active[i];
        ctx.reset(v, round, adj_offsets_[v], &results[i].meta, &results[i].payload);
        programs_[v]->on_round(ctx, inbox[v]);
        results[i].wakeup = ctx.wakeup_;
      }
    };
    if (options.pool != nullptr && active.size() >= options.parallel_threshold) {
      options.pool->parallel_for_chunked(active.size(), step_range);
    } else {
      step_range(0, active.size());
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
