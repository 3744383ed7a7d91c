/// \file node.hpp
/// \brief Per-node program interface for the CONGEST simulator.
///
/// An algorithm is a NodeProgram subclass instantiated once per vertex
/// (every node runs the same code on its own state — paper §2.1). The
/// simulator calls on_round() with the messages delivered this round; the
/// program reacts by sending at most one message per incident link (the
/// CONGEST slot discipline, enforced) and/or scheduling a wake-up.
///
/// Knowledge model: a node knows its own ID, its degree, and the IDs of its
/// neighbors (port -> ID). This is the standard KT1 assumption; with KT0 the
/// neighbor IDs cost one extra round of exchange, which shifts every round
/// count by one and nothing else.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/check.hpp"
#include "util/pool_alloc.hpp"

namespace decycle::congest {

using graph::NodeId;
using graph::Vertex;

/// A message as seen by the receiver. \p port is the receiver's port number
/// for the sending neighbor (dense 0..deg-1, sorted by neighbor vertex).
struct Envelope {
  std::uint32_t port = 0;
  Message payload;
};

/// The simulator's per-run machinery (delivery arenas, timer wheel, step
/// contexts); defined in simulator.cpp. Declared here so it can drive the
/// Context internals below.
struct SimRuntime;

/// The per-round view a node has of itself and its links. Constructed by the
/// simulator; programs only ever see references.
class Context {
 public:
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] Vertex vertex() const noexcept { return vertex_; }
  [[nodiscard]] NodeId my_id() const noexcept { return ids_->id_of(vertex_); }
  [[nodiscard]] std::size_t degree() const noexcept { return nbrs_.size(); }

  [[nodiscard]] NodeId neighbor_id(std::uint32_t port) const { return ids_->id_of(nbrs_[port]); }

  /// Queues \p msg on \p port. At most one send per port per round
  /// (CONGEST); violations throw.
  void send(std::uint32_t port, Message msg);

  /// Broadcasts a copy of \p msg on every port.
  void send_all(const Message& msg);

  /// Ensures this node is stepped at \p round even without incoming mail
  /// (used for repetition boundaries). Must be in the future.
  void request_wakeup_at(std::uint64_t round);

  /// A queued send as the simulator's delivery merge sees it, minus its
  /// payload: metadata and message bytes live in parallel arrays so the
  /// counting pass streams over lean fixed-size records without pulling
  /// payload cache lines. The receiver vertex and its port for the sender
  /// are resolved at enqueue time from the simulator's precomputed
  /// reverse-port table (O(1)), so the merge never searches adjacency
  /// lists. \p dropped is set by the delivery pass when the fault adversary
  /// removes the message.
  struct OutMeta {
    std::uint64_t bits = 0;  ///< payload bit size (stats without payload access)
    Vertex from = 0;
    Vertex dest = 0;
    std::uint32_t rport = 0;  ///< receiver's port for \p from
    std::uint8_t dropped = 0;
  };

  /// Sentinel for "no wake-up scheduled"; shared with the simulator so the
  /// two sides can never drift apart.
  static constexpr std::uint64_t kNoWakeup = ~std::uint64_t{0};

 private:
  friend class Simulator;
  friend struct SimRuntime;

  /// \p g is the *communication* graph the model picked (the input graph
  /// under congest, K_n under clique). \p rev_ports may be null
  /// (Simulator::run_reference resolves receiver ports by binary search).
  /// Send-slot stamps are sized to the graph's maximum degree.
  Context(const graph::Graph& g, const graph::IdAssignment& ids, const std::uint32_t* rev_ports)
      : graph_(&g), ids_(&ids), rev_ports_(rev_ports) {
    port_stamp_.resize(g.max_degree(), 0);
  }

  const graph::Graph* graph_;
  const graph::IdAssignment* ids_;
  const std::uint32_t* rev_ports_;  ///< CSR-aligned reverse ports, or null
  std::vector<OutMeta>* out_meta_ = nullptr;     ///< round outbox (owned by the simulator)
  std::vector<Message>* out_payload_ = nullptr;  ///< payloads, in lockstep with out_meta_
  std::span<const Vertex> nbrs_;
  std::size_t adj_base_ = 0;  ///< offset of vertex_'s adjacency in the CSR
  Vertex vertex_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t wakeup_ = kNoWakeup;

  /// One-message-per-link enforcement without an O(degree) clear per step:
  /// a port is used this step iff its stamp equals the current step serial.
  std::vector<std::uint64_t> port_stamp_;
  std::uint64_t step_serial_ = 0;

  void reset(Vertex v, std::uint64_t round, std::size_t adj_base, std::vector<OutMeta>* meta,
             std::vector<Message>* payload) {
    vertex_ = v;
    round_ = round;
    adj_base_ = adj_base;
    out_meta_ = meta;
    out_payload_ = payload;
    nbrs_ = graph_->neighbors(v);
    wakeup_ = kNoWakeup;
    ++step_serial_;
  }
};

/// Base class for distributed algorithms. One instance per vertex; the
/// simulator owns the instances and exposes them back to the harness after
/// the run (for reading per-node outputs).
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called every round the node is active: round 0 for all nodes, later
  /// rounds only when mail arrived or a wake-up was scheduled. \p inbox is
  /// sorted by port and contains at most one envelope per port.
  virtual void on_round(Context& ctx, std::span<const Envelope> inbox) = 0;

  /// Program instances route through the lane-confined size-classed pool
  /// when a util::PoolScope is active (Simulator::reset installs one), so
  /// reset-heavy sweeps recycle program blocks instead of hitting the
  /// global heap; outside a scope this IS the global heap, so ad-hoc
  /// construction in tests works unchanged. Each block carries its origin,
  /// so deletion is correct from any context that outlives the pool.
  static void* operator new(std::size_t bytes) { return util::pooled_allocate(bytes); }
  static void operator delete(void* p) noexcept { util::pooled_deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept { util::pooled_deallocate(p); }
  /// Over-aligned subclasses bypass the 16-byte-aligned pool entirely.
  static void* operator new(std::size_t bytes, std::align_val_t al) {
    return ::operator new(bytes, al);
  }
  static void operator delete(void* p, std::align_val_t al) noexcept { ::operator delete(p, al); }
};

inline void Context::send(std::uint32_t port, Message msg) {
  DECYCLE_CHECK_MSG(port < degree(), "send: port out of range");
  DECYCLE_CHECK_MSG(port_stamp_[port] != step_serial_,
                    "CONGEST violation: two messages on one link in a round");
  port_stamp_[port] = step_serial_;
  const std::uint32_t rport =
      rev_ports_ != nullptr ? rev_ports_[adj_base_ + port] : ~std::uint32_t{0};
  out_meta_->push_back(OutMeta{msg.bit_size(), vertex_, nbrs_[port], rport, 0});
  out_payload_->push_back(std::move(msg));
}

inline void Context::send_all(const Message& msg) {
  for (std::uint32_t p = 0; p < degree(); ++p) send(p, msg);
}

inline void Context::request_wakeup_at(std::uint64_t round) {
  DECYCLE_CHECK_MSG(round > round_, "wakeup must be scheduled in the future");
  wakeup_ = wakeup_ == kNoWakeup ? round : std::min(wakeup_, round);
}

}  // namespace decycle::congest
