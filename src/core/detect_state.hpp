/// \file detect_state.hpp
/// \brief Per-node state machine for Phase 2 of Algorithm 1 (one edge).
///
/// This class is the algorithm with the network abstracted away: the caller
/// feeds it the sequences received each round and broadcasts whatever it
/// returns. Both the single-edge checker (cycle_detector.hpp) and the full
/// tester (tester.hpp) drive instances of it; unit tests drive it directly
/// with hand-crafted traces (including the erratum counterexamples).
///
/// Round alignment (DESIGN.md §3.2): simulator round g carries sequences of
/// length g. seed() produces the round-0 broadcast ({(myid)} at the edge's
/// endpoints); step(g, received) handles 1 <= g <= half(): it prunes with
/// paper-round t = g+1 and returns the bundle to broadcast while g < half(),
/// and runs the final check (with the E-A/E-B corrections) at g == half().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/pruning.hpp"
#include "core/sequence.hpp"
#include "core/trace.hpp"

namespace decycle::core {

struct DetectParams {
  unsigned k = 5;
  PruningMode pruning = PruningMode::kRepresentative;
  bool fake_ids = true;              ///< Instruction 14 (ablation switch)
  std::size_t naive_cap = 1u << 18;  ///< family cap for PruningMode::kNaive
  TraceSink* trace = nullptr;        ///< optional execution trace (trace.hpp)
};

/// The rejecting pair of the final check. For odd k both members were
/// received this round; for even k `first` is one of the node's own last
/// sent sequences (ending in its ID) and `second` was received.
struct FinalPair {
  IdSeq first;
  IdSeq second;
};

class EdgeDetectState {
 public:
  EdgeDetectState(const DetectParams& params, NodeId my_id, NodeId u, NodeId v);

  [[nodiscard]] unsigned k() const noexcept { return params_.k; }
  /// ⌊k/2⌋ — the number of Phase-2 communication rounds.
  [[nodiscard]] unsigned half() const noexcept { return params_.k / 2; }
  [[nodiscard]] NodeId my_id() const noexcept { return my_id_; }

  /// Round-0 broadcast: {(my_id)} iff this node is an endpoint of the edge.
  [[nodiscard]] std::vector<IdSeq> seed();

  /// Processes the sequences received at simulator round \p g (all of length
  /// g) and returns the bundle to broadcast (empty at g == half(), where the
  /// final check runs instead). Feeding rounds out of order is allowed —
  /// a node that switches edges mid-phase starts at whatever round the new
  /// edge's traffic reaches it.
  [[nodiscard]] std::vector<IdSeq> step(std::uint64_t g, std::vector<IdSeq> received);

  [[nodiscard]] bool rejected() const noexcept { return pair_.has_value(); }

  /// The k IDs of the detected cycle, in cyclic order (empty if accepted).
  [[nodiscard]] std::vector<NodeId> witness_cycle_ids() const;

  [[nodiscard]] bool overflowed() const noexcept { return overflow_; }

  /// sent_counts()[g] = number of sequences broadcast at round g (Lemma 3
  /// instrumentation; index 0 = seed round).
  [[nodiscard]] std::span<const std::size_t> sent_counts() const noexcept {
    return sent_counts_;
  }

 private:
  void final_check(std::span<const IdSeq> received);
  void trace(TraceEvent::Kind kind, std::uint64_t round, const IdSeq& sequence) const;

  DetectParams params_;
  NodeId my_id_;
  NodeId u_;
  NodeId v_;
  std::unique_ptr<Pruner> pruner_;
  std::vector<IdSeq> last_sent_;  ///< S of the last pruning round (even-k check)
  std::optional<FinalPair> pair_;
  bool overflow_ = false;
  std::vector<std::size_t> sent_counts_;
};

}  // namespace decycle::core
