/// \file repro.hpp
/// \brief Soak cases: the one repro format every contract reads and writes.
///
/// A case is everything needed to replay one contract check
/// deterministically, in two plain-text parts:
///
///   # decycle_soak repro v2            (comment lines, ignored)
///   scenario contract=prefix detector=threshold kind=unsound k=9 [...]
///                                      (one line: ... eps, reps, budget,
///                                       track, adversary, seed)
///   stream n=12 directed=0 seed=7      (the insert list — stream.hpp's
///   13                                  format: header, count, then one
///   0 1                                 insert per line)
///   ...
///
/// The scenario line carries the contract, the detector name (left out when
/// the mismatch belongs to no detector: the prefix contract's closure
/// checks and the serve checkpoint hash), the expected mismatch kind
/// (`none` asserts a clean run) and every knob of SoakScenario. Oracle and
/// serve cases store the instance's edges in canonical order; prefix cases
/// store them in insertion order. Nothing else is needed: probe edges, drop
/// coins, insertion orders and serve transcripts all derive from the case.
/// `decycle_soak --repro FILE` replays any case. Parsing follows util/kv.hpp:
/// unknown keys, bad kinds and contracts, malformed values and bodies name
/// the accepted alternatives.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "incremental/stream.hpp"
#include "soak/differential.hpp"
#include "soak/space.hpp"

namespace decycle::soak {

/// The three checks a soak case can run.
enum class Contract : std::uint8_t {
  kOracle,  ///< every detector vs the DFS oracle (differential.hpp)
  kPrefix,  ///< insertion prefixes: incremental verdicts vs oracle vs batch detectors
  kServe,   ///< served replies vs direct engine runs
};

[[nodiscard]] std::string_view contract_name(Contract contract) noexcept;

/// Parses "oracle" / "prefix" / "serve"; throws util::ParseError naming the
/// three contracts otherwise.
[[nodiscard]] Contract parse_contract(std::string_view token);

/// One recorded case: contract + detector + kind + scenario knobs + instance.
struct ReproCase {
  Contract contract = Contract::kOracle;
  std::string detector;  ///< registry name; empty = no detector
  MismatchKind kind = MismatchKind::kUnsound;
  SoakScenario scenario;
  incremental::InsertStream stream;
};

/// Runs \p c's contract on \p c's instance — only \p c.detector when it is
/// set, every capability-compatible detector of \p registry otherwise — and
/// returns the first mismatch of each (detector, kind). Pure function of
/// its inputs: the shrinker's probe and the replay's check. Throws
/// CheckError when \p c.detector is not registered.
[[nodiscard]] std::vector<CaseMismatch> check_case(
    const ReproCase& c,
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin());

/// Whether \p found reproduces \p c: a mismatch of \p c's (detector, kind),
/// or no mismatch at all for kind none.
[[nodiscard]] bool reproduces(const ReproCase& c, const std::vector<CaseMismatch>& found);

/// Writes the repro format above. Deterministic bytes (write → read → write
/// round-trips identically).
void write_repro(std::ostream& out, const ReproCase& repro);

/// Parses the repro format; the scenario line is read by util/kv.hpp's
/// rules. Throws util::ParseError on unknown/duplicate/missing scenario
/// keys, values that do not fit their field (a non-finite eps or adversary
/// rate included), bad kinds or contracts, or a malformed insert list —
/// each message naming the key and the accepted alternatives; an edge-list
/// (v1) or request-transcript body fails with a message naming the v2
/// layout.
[[nodiscard]] ReproCase read_repro(std::istream& in);

struct ReplayResult {
  MismatchKind observed = MismatchKind::kNone;
  bool reproduced = false;  ///< see reproduces()
  std::string detail;       ///< detail of the observed mismatch
};

/// Replays \p repro through check_case. Pure, so a repro replays
/// bit-identically forever.
[[nodiscard]] ReplayResult replay_repro(
    const ReproCase& repro,
    const core::DetectorRegistry& registry = core::DetectorRegistry::builtin());

}  // namespace decycle::soak
