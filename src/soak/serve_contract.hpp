/// \file serve_contract.hpp
/// \brief The serve contract: client-path replies vs direct engine runs.
///
/// The oracle contract checks detectors against the DFS oracle; this one
/// checks the *serving stack* against the engine it wraps. A fresh
/// in-process serve::Server with one worker rebuilds the case's instance
/// as a tenant through the real mutation path — create on the empty graph,
/// then insert batches of at most max_insert_edges edges in the case's
/// order — and a checkpoint, and every capability-compatible detector of
/// the registry is queried, twice:
///
///   * through the client path — a protocol payload submitted to the
///     server, traversing parse, admission control, the worker queue and
///     reply formatting; the second ask is answered by the verdict cache;
///   * directly — the detector looked up in the *case's* registry runs
///     through run_one on a private DetectionEngine, pinned on the same
///     canonical edge list, formatted with the same format_verdict.
///
/// Both served replies must equal the direct reply byte for byte (the
/// registry determinism contract makes a detector run a pure function of
/// graph content and resolved options, and a cache hit returns the bytes it
/// memoized), and the checkpoint hash must equal the direct pin's
/// structural hash. Any difference is a kDiverged mismatch. The request
/// transcript is a pure function of the case, so it is derived, never
/// stored. Queries carry the scenario's k, ε, seed and repetitions (at
/// least one); the protocol has no budget, tracking or adversary keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "incremental/stream.hpp"
#include "soak/differential.hpp"
#include "soak/space.hpp"

namespace decycle::soak {

struct ServeReport {
  std::string hash;          ///< the direct pin's structural hash, lowercase hex
  std::size_t queries = 0;   ///< detectors cross-checked (each asked twice)
  std::uint64_t verdict_hits = 0;
  std::uint64_t verdict_misses = 0;
  /// The checkpoint hash check (no detector), then one entry per diverging
  /// detector.
  std::vector<CaseMismatch> mismatches;
};

/// Runs the serve contract on the undirected \p stream under \p s, querying
/// \p registry's detectors (only \p only when it is non-empty). Throws
/// CheckError when the server refuses to build the tenant.
[[nodiscard]] ServeReport check_serve(
    const incremental::InsertStream& stream, const SoakScenario& s,
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin(),
    std::string_view only = {});

}  // namespace decycle::soak
