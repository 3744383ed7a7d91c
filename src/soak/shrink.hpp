/// \file shrink.hpp
/// \brief Automatic shrinking for the mismatches of every soak contract.
///
/// A mismatch found on a 48-vertex random composition is a lousy bug report.
/// The shrinker turns any case into a minimal one: a prefix case is first
/// cut back to its failing prefix; then it greedily deletes vertices, then
/// inserts, while the mismatch still reproduces, and tightens the scalar
/// knobs (drop adversary off, repetitions down to one, budget caps off)
/// whenever the tightened case still reproduces. The result is 1-minimal
/// under the probed moves — no single remaining vertex or insert can be
/// removed — which in practice collapses a mismatch to the few vertices
/// that trigger it (a planted always-reject-on-any-cycle fault shrinks to
/// one bare cycle).
///
/// Everything is deterministic: candidates are probed in a fixed order and
/// the predicate must be a pure function of the case — check_case is
/// exactly that — so a shrink replays bit-identically.
#pragma once

#include <cstddef>
#include <functional>

#include "core/detector.hpp"
#include "incremental/stream.hpp"
#include "soak/repro.hpp"

namespace decycle::soak {

/// True when the mismatch still reproduces on the candidate.
using ShrinkPredicate = std::function<bool(const ReproCase&)>;

struct ShrinkOptions {
  /// Hard cap on predicate evaluations; the shrinker stops (keeping the best
  /// candidate so far) when it is exhausted. Each probe runs one contract
  /// check, so this bounds shrink wall-clock.
  std::size_t max_probes = 20000;
  /// Deletion passes run to a fixpoint, capped here as a safety net.
  std::size_t max_rounds = 16;
};

struct ShrinkStats {
  std::size_t probes = 0;  ///< predicate evaluations spent
  std::size_t rounds = 0;  ///< deletion passes run
  bool converged = true;   ///< false = probe/round budget hit before fixpoint
};

struct ShrinkOutcome {
  ReproCase repro;  ///< reduced case (still reproduces)
  ShrinkStats stats;
};

/// \p s with vertex \p v deleted (inserts touching it dropped, higher
/// vertices renumbered down by one, insert order kept). Exposed for tests.
[[nodiscard]] incremental::InsertStream remove_vertex(const incremental::InsertStream& s,
                                                      graph::Vertex v);

/// \p s with insert \p i deleted. Exposed for tests.
[[nodiscard]] incremental::InsertStream remove_insert(const incremental::InsertStream& s,
                                                      std::size_t i);

/// Shrinks \p c under \p reproduces. Requires the predicate to hold on the
/// input (throws CheckError otherwise — shrinking a non-mismatch would
/// "minimize" to garbage).
[[nodiscard]] ShrinkOutcome shrink_mismatch(const ReproCase& c, const ShrinkPredicate& reproduces,
                                            const ShrinkOptions& options = {});

/// The standard predicate: check_case on \p registry (which must outlive
/// the predicate) still reports the candidate's (detector, kind).
[[nodiscard]] ShrinkPredicate mismatch_predicate(const core::DetectorRegistry& registry);

}  // namespace decycle::soak
