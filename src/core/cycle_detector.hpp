/// \file cycle_detector.hpp
/// \brief The deterministic single-edge checker: "is there a Ck through e?"
///
/// This is Phase 2 run in isolation — the subroutine Theorem 1's reduction
/// produces. It is fully deterministic and does not rely on ε-farness: if
/// any k-cycle passes through the given edge, some node rejects (Lemma 2),
/// and every rejection carries a validated witness cycle. Experiment T4
/// sweeps this checker against the exact oracle over every edge of random
/// graphs.
#pragma once

#include <memory>

#include "congest/simulator.hpp"
#include "core/detect_state.hpp"
#include "core/detector.hpp"

namespace decycle::core {

/// NodeProgram running EdgeDetectState for one fixed edge. All nodes know
/// (u, v) up front — the dissemination of the chosen edge is Phase 1's job
/// and is handled by the full tester.
class EdgeCheckProgram final : public congest::NodeProgram {
 public:
  EdgeCheckProgram(const DetectParams& params, NodeId my_id, NodeId u, NodeId v)
      : state_(params, my_id, u, v) {}

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override;

  [[nodiscard]] const EdgeDetectState& state() const noexcept { return state_; }

 private:
  EdgeDetectState state_;
};

/// The registry's "edge_checker" (DetectorRegistry::builtin()): resets the
/// simulator with EdgeCheckPrograms for DetectorOptions::edge — or, when
/// absent, an edge drawn uniformly from a stream derived from the seed — and
/// reports whether any node rejected. The programs stay on the simulator
/// after run(), so callers can read per-node state (e.g. the per-round
/// bundle sizes of EdgeDetectState::sent_counts).
[[nodiscard]] std::unique_ptr<Detector> make_edge_checker_detector();

}  // namespace decycle::core
