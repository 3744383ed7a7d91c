/// \file session.hpp
/// \brief IncrementalSession: streaming inserts wired into the engine's
/// snapshot/epoch machinery.
///
/// The detectors in incremental.hpp answer per-insert closure on the hot
/// path; the batch detectors answer C_k-specific queries on immutable
/// snapshots. IncrementalSession is the bridge:
///
///   * it owns a ForestConnectivity over n vertices and the pin of its last
///     snapshot;
///   * apply() streams a batch of inserts through the detector (per-insert
///     verdicts) and, because the graph content just changed, retires every
///     cached Simulator session of the previous snapshot: one epoch bump on
///     the session's own pin (in-flight leases finish on the old epoch, new
///     leases miss) plus one SessionPool::purge (idle sessions are destroyed
///     rather than left to age out of the LRU);
///   * checkpoint() materializes the accumulated edges as an immutable
///     engine::pin — batch detectors lease fresh sessions against it and
///     seamlessly run on the current snapshot;
///   * run_batch() is the query bridge: checkpoint, then
///     DetectionEngine::run_batch. The insert stream answers k=∞ closure;
///     the engine answers C_k-specific queries on demand.
///
/// Sessions share only the engine's content-keyed session cache: two
/// sessions may carry the same name, and neither's mutation bumps the
/// other's pin (a purge drops idle sessions by content hash, so a sibling
/// with identical content rebuilds — a cost, never a wrong answer).
///
/// Determinism: everything is a pure function of the insert sequence and
/// the queries, so the soak prefix contract (soak/prefix_contract.hpp)
/// pins the three systems — incremental verdicts, the DFS oracle, batch
/// detectors — against each other at any prefix.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "incremental/incremental.hpp"
#include "incremental/stream.hpp"

namespace decycle::incremental {

/// Per-insert verdicts of one apply() batch.
struct BatchVerdicts {
  std::size_t closures = 0;
  /// closed[i] — did batch insert i close a cycle? (std::uint8_t: a bitset
  /// would save space but per-insert answers are the service's product.)
  std::vector<std::uint8_t> closed;
};

class IncrementalSession {
 public:
  /// Binds the session to \p engine on \p n vertices. \p name (non-empty)
  /// labels the session for its owner; the engine never reads it.
  IncrementalSession(engine::DetectionEngine& engine, std::string name, graph::Vertex n);

  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] graph::Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t inserts() const noexcept { return detector_.inserts(); }
  [[nodiscard]] std::uint64_t closures() const noexcept { return detector_.closures(); }
  [[nodiscard]] const ForestConnectivity& detector() const noexcept { return detector_; }
  [[nodiscard]] std::span<const Insert> edges() const noexcept { return edges_; }

  /// Streams \p batch through the detector and accumulates the edges for
  /// the next checkpoint. When at least one insert lands and a snapshot
  /// exists, bumps the snapshot's epoch and purges its cached sessions —
  /// the mutation half of the epoch/purge contract.
  BatchVerdicts apply(std::span<const Insert> batch);

  /// Single-insert convenience over apply().
  [[nodiscard]] bool insert(graph::Vertex u, graph::Vertex v);

  /// The current snapshot: pins the accumulated graph when dirty, otherwise
  /// returns the existing pin. O(n + m) when dirty, O(1) when clean.
  engine::PinnedGraphPtr checkpoint();

  /// Checkpoint, then run \p queries through the engine on the snapshot —
  /// the "any registry detector on the live stream" bridge.
  [[nodiscard]] std::vector<core::Verdict> run_batch(std::span<const engine::Query> queries);

 private:
  engine::DetectionEngine& engine_;
  std::string name_;
  graph::Vertex n_ = 0;
  ForestConnectivity detector_;
  std::vector<graph::Edge> edges_;  ///< canonicalized accumulated edges
  engine::PinnedGraphPtr pin_;      ///< last checkpoint (nullptr before first)
  bool dirty_ = true;
};

}  // namespace decycle::incremental
