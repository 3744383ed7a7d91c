/// \file prefix_contract.hpp
/// \brief The prefix contract: incremental verdicts vs the BFS/DFS oracle vs
/// batch detectors, at every insertion prefix of a stream.
///
/// The oracle contract checks detectors on static instances; this is the
/// streaming complement. A stream is replayed insert by insert and, at
/// every prefix, three systems must agree:
///
///   * the incremental verdict — ForestConnectivity's "did this insert
///     close a cycle?" — is pinned against a from-scratch BFS oracle on the
///     explicit prefix graph: closure iff the endpoints were already
///     connected, and the IncrementalSession's own union-find must agree
///     with the detector;
///   * every closure's witness must be a genuine cycle of the post-insert
///     prefix graph, and the repo's DFS oracle must find a cycle of the
///     witness length through the inserted edge;
///   * batch detectors run through the IncrementalSession checkpoint bridge
///     on the post-insert snapshot, and every verdict goes through the
///     oracle contract's classify_verdict: on a closure of length L they
///     are queried for C_L and must reject with a genuine witness; while
///     the stream is still a forest they are queried for a swept k and any
///     rejection is unsound. The batch detectors are the registry's
///     congest-model detectors in the exact regime under the case's
///     scenario (exact_regime) — threshold with an unlimited untracked
///     budget and the edge checker handed the inserted edge, for the
///     builtin registry.
///
/// Incremental-side disagreements are kClosure mismatches and belong to no
/// detector. The scenario's k bounds the cycle length handed to the DFS
/// oracle and the batch detectors (longer witnesses are still structurally
/// validated): exact C_k scans grow exponentially in k. Every check routes
/// through the session's epoch/purge machinery, so a stale cached Simulator
/// session surviving a mutation would surface here as a mismatch.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "incremental/stream.hpp"
#include "soak/differential.hpp"
#include "soak/space.hpp"

namespace decycle::soak {

struct PrefixReport {
  std::size_t closures = 0;
  std::size_t batch_queries = 0;  ///< detector runs through the session bridge
  /// The first mismatch of each (detector, kind); the detail names the
  /// insert index it surfaced at.
  std::vector<CaseMismatch> mismatches;

  [[nodiscard]] bool failed() const noexcept { return !mismatches.empty(); }
};

/// Replays \p stream and checks every prefix under scenario \p s. Batch
/// detectors come from \p registry, narrowed to \p only when it is
/// non-empty. Pure function of its inputs.
[[nodiscard]] PrefixReport check_prefixes(
    const incremental::InsertStream& stream, const SoakScenario& s,
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin(),
    std::string_view only = {});

}  // namespace decycle::soak
