/// \file tester.hpp
/// \brief The complete distributed property-testing algorithm of Theorem 1.
///
/// Protocol per repetition (rep_len = ⌊k/2⌋ + 2 rounds):
///   phase 0: each edge's owner (smaller-ID endpoint) draws a rank and sends
///            it across the edge;
///   phase 1: every node selects its minimum-(rank,u,v) incident edge and
///            broadcasts the Phase-2 seed for it;
///   phase 2+g (g = 1..⌊k/2⌋): Phase-2 traffic, tagged with the edge's
///            priority. A node serves one edge at a time: messages for a
///            lower-priority edge are discarded, a higher-priority edge takes
///            over (fresh Phase-2 state) — the paper's prioritized search.
///            Since each node sends for at most one edge per round, no link
///            ever carries two executions in one direction simultaneously.
///
/// ⌈e²·ln3/ε⌉ repetitions run back-to-back with fresh ranks (Theorem 1's
/// amplification); a node's final output is reject iff any repetition's
/// final check fired. Every rejection is validated against the graph — the
/// tester cannot report a cycle that does not exist (1-sided error).
#pragma once

#include <cstdint>
#include <optional>

#include <memory>

#include "congest/simulator.hpp"
#include "core/detect_state.hpp"
#include "core/detector.hpp"
#include "core/phase1.hpp"
#include "util/rng.hpp"

namespace decycle::core {

/// The per-node program implementing the full tester.
class TesterProgram final : public congest::NodeProgram {
 public:
  TesterProgram(const DetectParams& params, std::size_t repetitions, std::uint64_t seed,
                std::uint64_t n, NodeId my_id);

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override;

  [[nodiscard]] bool rejected() const noexcept { return !witness_ids_.empty(); }
  [[nodiscard]] const std::vector<NodeId>& witness_ids() const noexcept { return witness_ids_; }
  [[nodiscard]] std::size_t rejecting_repetition() const noexcept { return reject_rep_; }
  [[nodiscard]] bool overflowed() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t switches() const noexcept { return switches_; }
  [[nodiscard]] std::size_t discarded_messages() const noexcept { return discarded_; }
  /// max bundle size broadcast at phase round g (Lemma 3 instrumentation).
  [[nodiscard]] std::span<const std::size_t> max_sent_by_round() const noexcept {
    return max_sent_by_round_;
  }

 private:
  void start_repetition(congest::Context& ctx, std::size_t rep);
  void select_and_seed(congest::Context& ctx, std::span<const congest::Envelope> inbox);
  void phase2_round(congest::Context& ctx, std::span<const congest::Envelope> inbox,
                    std::uint64_t g);
  void broadcast_sequences(congest::Context& ctx, std::span<const IdSeq> seqs);

  DetectParams params_;
  std::size_t repetitions_;
  std::uint64_t seed_;
  std::uint64_t rank_range_;
  NodeId my_id_;
  unsigned half_;
  std::uint64_t rep_len_;

  // Per-repetition state.
  std::vector<std::uint64_t> port_rank_;       ///< rank per incident edge (by port)
  std::optional<EdgePriority> current_;        ///< edge this node currently serves
  std::optional<EdgeDetectState> state_;

  // Outputs / instrumentation.
  std::vector<NodeId> witness_ids_;
  std::size_t reject_rep_ = 0;
  bool overflow_ = false;
  std::size_t switches_ = 0;
  std::size_t discarded_ = 0;
  std::vector<std::size_t> max_sent_by_round_;
};

/// The registry's "tester" (DetectorRegistry::builtin()): resets the
/// simulator with TesterPrograms, runs the ⌈e²·ln3/ε⌉ repetitions (or
/// DetectorOptions::repetitions), and aggregates the node outputs. Counters:
/// switches_total and discarded_total (prioritized-search instrumentation).
[[nodiscard]] std::unique_ptr<Detector> make_tester_detector();

}  // namespace decycle::core
