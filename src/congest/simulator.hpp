/// \file simulator.hpp
/// \brief Synchronous round-based CONGEST network simulator.
///
/// Execution model (paper §2.1): all nodes start simultaneously and proceed
/// in synchronized rounds; in each round a node computes, sends at most one
/// message per incident link, and receives what neighbors sent this round
/// (delivered at the start of the next step). The simulator is event-driven:
/// after round 0 (where every node runs) only nodes with incoming mail or a
/// scheduled wake-up are stepped, so quiet regions of a large network cost
/// nothing.
///
/// Message path (DESIGN.md §4): receiver ports come from a CSR reverse-port
/// table precomputed at construction (O(1) per message); inboxes live in a
/// double-buffered flat envelope arena filled by counting placement (never
/// sorted — ascending sender order already yields ascending receiver ports);
/// wake-ups sit in a bucketed timer wheel with a min-heap overflow for far
/// targets. A steady-state round performs no heap allocation.
///
/// Communication models (DESIGN.md §11): the simulator is constructed with
/// a CommModel (comm_model.hpp) that decides the link topology — classic
/// CONGEST (the default; links are the input edges) or the Congested Clique
/// (all-to-all links). graph() always returns the INPUT graph (the object
/// under test); comm_graph() is the model's link topology, which every
/// delivery structure above is built from.
///
/// Determinism: a run executes on the thread that calls run(), stepping
/// nodes in ascending vertex order. Every inbox, every statistic, and the
/// full round schedule are identical to run_reference()'s straightforward
/// loop — property-tested in tests/congest/simulator_test.cpp. Parallelism
/// lives above the simulator: independent queries run on their own
/// simulators in engine lanes (DESIGN.md §2).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "congest/comm_model.hpp"
#include "congest/metrics.hpp"
#include "congest/node.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/pool_alloc.hpp"

namespace decycle::congest {

class Simulator {
 public:
  /// \p factory builds the program for each vertex (same code everywhere,
  /// per the model — but the factory sees the vertex so tests can inject
  /// faults or roles).
  using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(Vertex)>;

  /// Fault-injection hook: return true to silently drop the message sent at
  /// \p round from \p from to \p to. Used by the fault experiments — the
  /// tester must stay 1-sided under arbitrary message loss (a dropped
  /// message can only lose detections, never fabricate a cycle). The filter
  /// is invoked exactly once per message; determinism of the run requires
  /// it to be a pure function of its arguments. Queries running in
  /// parallel engine lanes may share one filter, so it must be thread-safe.
  using DropFilter = std::function<bool(std::uint64_t round, Vertex from, Vertex to)>;

  /// Run options.
  struct Options {
    std::uint64_t max_rounds = 1'000'000;  ///< safety cap
    bool record_rounds = false;            ///< keep per-round stats (for T3/T5)
    DropFilter drop;                       ///< optional message-loss adversary
  };

  /// Topology-only construction under \p model: builds the link topology
  /// and its CSR reverse-port table but no programs; reset() must be called
  /// before run(). graph() keeps returning the *input* graph — the object
  /// the algorithms reason about — while delivery, ports and Context
  /// neighbor views run over comm_graph().
  Simulator(const graph::Graph& g, const graph::IdAssignment& ids,
            const CommModel& model = CommModel::congest());

  /// CONGEST construction with every program built by \p factory.
  Simulator(const graph::Graph& g, const graph::IdAssignment& ids, const ProgramFactory& factory);

  ~Simulator();

  /// Re-arms the simulator for a fresh run on the same topology: replaces
  /// every node program via \p factory while keeping the CSR reverse-port
  /// table and all run-time buffers (envelope arenas at their traffic
  /// high-water mark, timer wheel, step context and outbox). A
  /// reset-then-run is bit-identical to constructing a fresh Simulator with
  /// the same factory and running it (property-tested) — consecutive trials
  /// on one topology skip the O(m) table build and the first-run arena
  /// growth.
  void reset(const ProgramFactory& factory);

  /// Runs until the network quiesces (no mail in flight, no wake-ups) or the
  /// round cap is hit.
  RunStats run(const Options& options);
  RunStats run() { return run(Options{}); }

  /// The semantics oracle: the straightforward loop this simulator shipped
  /// with (per-receiver vector inboxes sorted after the fact, binary-search
  /// port lookup, a std::map wake-up schedule, fresh containers every
  /// round). Same contract as run() and bit-identical to it — the tests
  /// compare the two, and bench/m2_simulator_micro measures run() against
  /// it. Nothing else should call it.
  RunStats run_reference(const Options& options);

  /// Access to per-node programs after (or between) runs.
  [[nodiscard]] NodeProgram& program(Vertex v) { return *programs_[v]; }
  [[nodiscard]] const NodeProgram& program(Vertex v) const { return *programs_[v]; }

  /// The INPUT graph — what the algorithms test for cycles. Identical to
  /// comm_graph() under congest; under clique the two differ.
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const graph::IdAssignment& ids() const noexcept { return *ids_; }

  /// The communication topology the model picked (drives ports, Context
  /// degrees/neighbors, and delivery).
  [[nodiscard]] const graph::Graph& comm_graph() const noexcept { return *comm_graph_; }

  [[nodiscard]] const CommModel& model() const noexcept { return *model_; }

  /// Typed sweep over all programs (harness convenience).
  template <typename P, typename Fn>
  void for_each_program(Fn&& fn) const {
    for (Vertex v = 0; v < graph_->num_vertices(); ++v) {
      fn(v, static_cast<const P&>(*programs_[v]));
    }
  }

 private:
  void check_programmed() const;

  const graph::Graph* graph_;
  const graph::IdAssignment* ids_;
  const CommModel* model_;

  /// The clique model's K_n; disengaged under congest, which communicates
  /// on the input graph itself. comm_graph_ points here or at graph_ and is
  /// what every delivery structure is built from.
  std::optional<graph::Graph> link_graph_;
  const graph::Graph* comm_graph_;

  /// Backs every program instance built by reset() (declared before
  /// programs_ so the blocks outlive their owners at destruction). Only
  /// the thread driving this simulator touches it (reset, program
  /// destruction).
  util::PoolAllocator program_pool_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;

  /// CSR offsets into the graph's flattened adjacency (n+1 entries) and the
  /// reverse-port table aligned with it: for the link out of sender u's
  /// port p, rev_ports_[adj_offsets_[u] + p] is the receiver's port for u. Built once in O(m) at construction.
  std::vector<std::size_t> adj_offsets_;
  std::vector<std::uint32_t> rev_ports_;

  /// Reusable per-run buffers (arenas, timer wheel, step context); lazily
  /// built on first arena run and reused across runs.
  std::unique_ptr<SimRuntime> runtime_;
};

}  // namespace decycle::congest
