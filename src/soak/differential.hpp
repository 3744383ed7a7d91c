/// \file differential.hpp
/// \brief The oracle contract: every detector vs the DFS oracle, and the
/// verdict classification all three soak contracts share.
///
/// A soak instance is run through every capability-compatible detector of a
/// registry, and every verdict is cross-checked:
///
///   * soundness (all detectors, all adversaries) — a rejection must carry a
///     witness that is a genuine C_k of the instance (validate_cycle, length
///     exactly k). The one-sided-error guarantee is unconditional, so a
///     rejection without such a witness — including a run that throws — is a
///     mismatch of kind kUnsound.
///   * exactness (drop-free runs only) — detectors that advertise an exact
///     regime must agree with the oracle in it: a draws_edge detector's
///     accept is checked against the oracle's cycle search through its probe
///     edge, a threshold-knob detector with an unlimited budget and
///     untracked executions is an exhaustive scan whose accept must match
///     has_cycle, and an exact_when_lossless detector (the clique h-cycle
///     detector) pins its accept to the oracle under every knob setting.
///     An accept where the oracle finds a cycle is kMissedCycle.
///
/// Communication models: each detector runs on a simulator whose model its
/// capability mask admits — the shared congest simulator for the classic
/// detectors, a lazily built dense-model simulator (clique) for the rest.
/// A detector with no compatible simulator for the instance is
/// capability-gated out (ran = false), exactly like an out-of-range k.
///
/// Probabilistic accepts (amplified tester under drops, sampling baselines)
/// are never per-instance mismatches; their aggregate behaviour is audited
/// at campaign level (see campaign.hpp). Detectors disagreeing with *each
/// other* reduce to these two kinds: any valid rejection proves the cycle
/// exists, so an exact-regime accept on the same instance is a mismatch
/// against the oracle, not merely against a peer.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "congest/simulator.hpp"
#include "core/detector.hpp"
#include "graph/graph.hpp"
#include "soak/space.hpp"

namespace decycle::soak {

enum class MismatchKind : std::uint8_t {
  kNone,         ///< verdict consistent with the contract
  kUnsound,      ///< rejected without a genuine C_k witness (or run threw)
  kMissedCycle,  ///< exact-regime accept although the oracle finds a cycle
  kClosure,      ///< an incremental verdict, witness or session disagrees with the BFS/DFS oracle
  kDiverged,     ///< a served reply or checkpoint hash differs from the direct run
};

[[nodiscard]] std::string_view mismatch_kind_name(MismatchKind kind) noexcept;

/// Parses "none" / "unsound" / "missed_cycle" / "closure" / "diverged";
/// throws util::ParseError naming the accepted kinds otherwise.
[[nodiscard]] MismatchKind parse_mismatch_kind(std::string_view token);

/// One mismatch a contract reports (differential, prefix_contract and
/// serve_contract all speak this type).
struct CaseMismatch {
  std::string detector;  ///< registry name; empty = the mismatch belongs to no detector
  MismatchKind kind = MismatchKind::kNone;
  std::string detail;

  bool operator==(const CaseMismatch&) const = default;
};

/// Whether a run of a detector with \p caps under \p s must agree with the
/// oracle: drop-free, and the detector advertises determinism — draws_edge
/// (the single-edge checker is exact per Lemma 2), exact_when_lossless, or
/// threshold knobs with nothing capped (an unlimited sweep is an exhaustive
/// parallel edge scan). Injected test detectors must not set these flags
/// unless they honor the corresponding exactness.
[[nodiscard]] bool exact_regime(const core::DetectorCapabilities& caps, const SoakScenario& s);

/// The fully resolved options every contract runs detector \p d with under
/// \p s: k, ε, repetitions, budget, tracking cap, a per-detector run seed
/// and the drop filter, all derived from the scenario.
[[nodiscard]] core::DetectorOptions detector_options(const SoakScenario& s,
                                                     const core::Detector& d);

/// What the oracle knows about one C_k query.
struct Expectation {
  bool has_ck = false;       ///< a C_k exists, so a rejection with a genuine witness is sound
  bool must_reject = false;  ///< exact regime and the oracle finds the searched cycle
  std::string where;         ///< names the searched cycle in a kMissedCycle detail
};

/// The soundness classification every contract applies to one verdict of
/// a C_k query on \p g: a rejection needs a length-k witness that
/// validate_cycle accepts and an oracle that finds a C_k (else kUnsound);
/// an accept where \p e requires a rejection is kMissedCycle, unless the
/// run overflowed or was truncated. Writes the reason into \p detail.
[[nodiscard]] MismatchKind classify_verdict(const graph::Graph& g, unsigned k,
                                            const core::Verdict& verdict, const Expectation& e,
                                            std::string& detail);

/// Oracle facts shared by every detector run of one instance.
struct OracleContext {
  bool has_ck = false;        ///< exact DFS: does the instance contain a C_k?
  bool has_probe = false;     ///< instance has edges (draws_edge detectors run)
  graph::Edge probe{};        ///< the target edge handed to draws_edge detectors
  bool probe_has_ck = false;  ///< oracle: C_k through the probe edge?
};

/// One detector's differential outcome on one instance.
struct DetectorOutcome {
  const core::Detector* detector = nullptr;
  bool ran = false;       ///< false = capability-gated out (record says "skip")
  bool rejected = false;  ///< verdict (meaningful when ran)
  bool exact_regime = false;
  MismatchKind mismatch = MismatchKind::kNone;
  std::string detail;  ///< human-readable mismatch reason (empty when kNone)
};

struct DifferentialReport {
  OracleContext oracle;
  std::vector<DetectorOutcome> outcomes;  ///< registry order, gated ones included
  std::vector<CaseMismatch> mismatches;   ///< one per mismatching outcome, same order
};

/// Runs every detector of \p registry on (g, scenario) — one congest
/// Simulator per call, reset by each congest-model detector (the reuse
/// contract), plus a lazily built dense-model simulator for detectors whose
/// mask excludes congest — and classifies every verdict. Defaults to the
/// built-in registry.
[[nodiscard]] DifferentialReport run_differential(
    const graph::Graph& g, const SoakScenario& s,
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin());

/// Re-checks a single detector on (g, scenario): the primitive the shrinker
/// probes and `decycle_soak --repro` replays. Pure function of its inputs.
[[nodiscard]] MismatchKind check_detector(const graph::Graph& g, const SoakScenario& s,
                                          const core::Detector& detector,
                                          std::string* detail = nullptr);

/// Campaign completeness-audit primitive: runs the registry's first
/// epsilon-driven detector at its amplified default repetitions, drop-free,
/// and reports whether it rejected. nullopt when no registered detector is
/// epsilon-driven or the scenario's k is outside its range. The campaign
/// calls this on certified-far instances only — Theorem 1 then claims
/// rejection with probability >= 2/3 per run, which the campaign audits in
/// aggregate.
[[nodiscard]] std::optional<bool> amplified_far_rejects(
    const graph::Graph& g, const SoakScenario& s,
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin());

}  // namespace decycle::soak
