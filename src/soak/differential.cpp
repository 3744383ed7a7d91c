#include "soak/differential.hpp"

#include <optional>
#include <utility>

#include "graph/ids.hpp"
#include "graph/subgraph.hpp"
#include "util/check.hpp"
#include "util/kv.hpp"
#include "util/rng.hpp"

namespace decycle::soak {

namespace {

// Seed-stream tags: the probe edge and the drop coin draw from streams
// derived from scenario.seed alone, so a repro file (scenario line + insert
// list) replays the identical run without carrying either explicitly.
constexpr std::uint64_t kProbeTag = 0x70726f62655f5f31ULL;  // "probe__1"
constexpr std::uint64_t kDropTag = 0x64726f705f5f5f32ULL;   // "drop___2"
constexpr std::uint64_t kRunTag = 0x72756e5f5f5f5f31ULL;    // "run____1"

/// Largest instance for which run_differential will build a dense-model
/// (clique) simulator for detectors that cannot run under congest.
constexpr graph::Vertex kDenseModelMaxN = 512;

/// Per-(scenario, detector) run seed: fold the detector name so sibling
/// detectors never share a random stream.
std::uint64_t run_seed(const SoakScenario& s, std::string_view detector) {
  std::uint64_t h = util::splitmix64(s.seed ^ kRunTag);
  for (const char c : detector) h = util::splitmix64(h ^ static_cast<unsigned char>(c));
  return h;
}

/// The oracle facts for (g, scenario). The probe edge is drawn from a
/// stream derived from scenario.seed, so replays and shrink probes agree on
/// the target without carrying it in the repro file.
OracleContext oracle_context(const graph::Graph& g, const SoakScenario& s) {
  OracleContext out;
  out.has_ck = graph::has_cycle(g, s.k);
  if (g.num_edges() > 0) {
    out.has_probe = true;
    util::Rng prng(util::splitmix64(s.seed ^ kProbeTag));
    out.probe = g.edge(static_cast<graph::EdgeId>(prng.next_below(g.num_edges())));
    out.probe_has_ck = graph::has_cycle_through_edge(g, s.k, out.probe.first, out.probe.second);
  }
  return out;
}

DetectorOutcome run_one(const graph::Graph& g, const SoakScenario& s,
                        const core::Detector& d, const OracleContext& oracle,
                        congest::Simulator& sim) {
  DetectorOutcome out;
  out.detector = &d;
  const core::DetectorCapabilities& caps = d.capabilities();
  if (s.k < caps.min_k || s.k > caps.max_k) return out;
  // Model gate: a detector only runs on a simulator whose communication
  // model its capability mask admits (run_differential hands model-specific
  // detectors a compatible simulator when the instance is small enough).
  if (!core::supports_model(caps, sim.model().kind())) return out;
  if (caps.draws_edge && !oracle.has_probe) return out;
  out.ran = true;
  out.exact_regime = exact_regime(caps, s);

  core::DetectorOptions opt = detector_options(s, d);
  if (caps.draws_edge) opt.edge = oracle.probe;

  core::Verdict verdict;
  try {
    verdict = d.run(sim, opt);
  } catch (const util::CheckError& e) {
    // The library's internal witness validation (and any other invariant)
    // throwing mid-run IS the soundness violation the soak hunts; surface it
    // as a shrinkable mismatch instead of crashing the campaign.
    out.rejected = true;
    out.mismatch = MismatchKind::kUnsound;
    out.detail = "run threw: " + std::string(e.what());
    return out;
  }

  out.rejected = !verdict.accepted;
  Expectation expect;
  expect.has_ck = oracle.has_ck;
  expect.must_reject = out.exact_regime && (caps.draws_edge ? oracle.probe_has_ck : oracle.has_ck);
  if (caps.draws_edge) {
    expect.where = " through probe edge {" + std::to_string(oracle.probe.first) + "," +
                   std::to_string(oracle.probe.second) + "}";
  }
  out.mismatch = classify_verdict(g, s.k, verdict, expect, out.detail);
  return out;
}

}  // namespace

std::string_view mismatch_kind_name(MismatchKind kind) noexcept {
  switch (kind) {
    case MismatchKind::kNone: return "none";
    case MismatchKind::kUnsound: return "unsound";
    case MismatchKind::kMissedCycle: return "missed_cycle";
    case MismatchKind::kClosure: return "closure";
    case MismatchKind::kDiverged: return "diverged";
  }
  return "none";
}

MismatchKind parse_mismatch_kind(std::string_view token) {
  for (const MismatchKind kind : {MismatchKind::kNone, MismatchKind::kUnsound,
                                  MismatchKind::kMissedCycle, MismatchKind::kClosure,
                                  MismatchKind::kDiverged}) {
    if (token == mismatch_kind_name(kind)) return kind;
  }
  throw util::ParseError("kind", "unknown mismatch kind '" + std::string(token) +
                                     "' (known: none, unsound, missed_cycle, closure, diverged)");
}

bool exact_regime(const core::DetectorCapabilities& caps, const SoakScenario& s) {
  if (s.adversary.kind != lab::AdversarySpec::Kind::kNone && s.adversary.rate > 0.0) {
    return false;
  }
  // Unconditionally exact when lossless (the clique h-cycle detector's final
  // phase collects the whole graph), whatever the knobs.
  if (caps.exact_when_lossless) return true;
  if (caps.draws_edge) return true;
  return caps.uses_threshold_knobs && s.budget.unlimited() && s.track == 0;
}

core::DetectorOptions detector_options(const SoakScenario& s, const core::Detector& d) {
  core::DetectorOptions opt;
  opt.k = s.k;
  opt.epsilon = s.epsilon;
  opt.seed = run_seed(s, d.name());
  opt.repetitions = s.repetitions;
  // A centralized reference left on its own default would run ⌈e^k·ln3⌉
  // colorings — thousands per instance. The soak caps it: accepts are never
  // per-instance mismatches for probabilistic detectors, so a smaller
  // iteration count only trades detection rate for throughput.
  if (!d.capabilities().distributed && opt.repetitions == 0) opt.repetitions = 32;
  opt.budget = s.budget;
  opt.max_tracked = s.track;
  opt.drop = lab::make_drop_filter(s.adversary, util::splitmix64(s.seed ^ kDropTag));
  return opt;
}

MismatchKind classify_verdict(const graph::Graph& g, unsigned k, const core::Verdict& verdict,
                              const Expectation& e, std::string& detail) {
  if (!verdict.accepted) {
    if (verdict.witness.size() != k || !graph::validate_cycle(g, verdict.witness)) {
      detail = "rejected without a genuine C_" + std::to_string(k) + " witness (witness length " +
               std::to_string(verdict.witness.size()) + ")";
      return MismatchKind::kUnsound;
    }
    if (!e.has_ck) {
      detail = "rejected but the oracle finds no C_" + std::to_string(k);
      return MismatchKind::kUnsound;
    }
    return MismatchKind::kNone;
  }
  if (e.must_reject && !verdict.overflow && !verdict.truncated) {
    detail = "exact-regime accept although the oracle finds a C_" + std::to_string(k) + e.where;
    return MismatchKind::kMissedCycle;
  }
  return MismatchKind::kNone;
}

DifferentialReport run_differential(const graph::Graph& g, const SoakScenario& s,
                                    const core::DetectorRegistry& registry) {
  DifferentialReport report;
  report.oracle = oracle_context(g, s);
  const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
  // One congest simulator for the whole call, reset by every congest-model
  // detector.
  congest::Simulator sim(g, ids);
  // Detectors whose mask excludes congest get a lazily built simulator under
  // their default model — capped by instance size, because the clique model
  // materializes K_n (n = 512 is ~131k links; the soak's instances are far
  // smaller, so in practice nothing is gated out by the cap).
  std::optional<congest::Simulator> alt_sim;
  const congest::CommModel* alt_model = nullptr;
  report.outcomes.reserve(registry.size());
  for (const core::Detector* d : registry.detectors()) {
    const core::DetectorCapabilities& caps = d->capabilities();
    congest::Simulator* target = &sim;
    if (!core::supports_model(caps, congest::CommModelKind::kCongest) &&
        g.num_vertices() <= kDenseModelMaxN) {
      const congest::CommModel& model = core::default_comm_model(caps);
      if (alt_model != &model) {
        alt_sim.emplace(g, ids, model);
        alt_model = &model;
      }
      target = &*alt_sim;
    }
    const DetectorOutcome& o =
        report.outcomes.emplace_back(run_one(g, s, *d, report.oracle, *target));
    if (o.mismatch != MismatchKind::kNone) {
      report.mismatches.push_back({std::string(d->name()), o.mismatch, o.detail});
    }
  }
  return report;
}

MismatchKind check_detector(const graph::Graph& g, const SoakScenario& s,
                            const core::Detector& detector, std::string* detail) {
  const OracleContext oracle = oracle_context(g, s);
  const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
  // The detector's default model, so replay/shrink probes of model-specific
  // detectors actually run instead of being capability-gated to a vacuous
  // kNone.
  congest::Simulator sim(g, ids, core::default_comm_model(detector.capabilities()));
  const DetectorOutcome outcome = run_one(g, s, detector, oracle, sim);
  if (detail != nullptr) *detail = outcome.detail;
  return outcome.mismatch;
}

std::optional<bool> amplified_far_rejects(const graph::Graph& g, const SoakScenario& s,
                                          const core::DetectorRegistry& registry) {
  for (const core::Detector* d : registry.detectors()) {
    const core::DetectorCapabilities& caps = d->capabilities();
    if (!caps.uses_epsilon) continue;
    if (s.k < caps.min_k || s.k > caps.max_k) return std::nullopt;
    SoakScenario audit = s;
    audit.repetitions = 0;  // the amplified default Theorem 1 speaks about
    audit.adversary = lab::AdversarySpec{};
    const OracleContext oracle = oracle_context(g, audit);
    const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
    congest::Simulator sim(g, ids);
    return run_one(g, audit, *d, oracle, sim).rejected;
  }
  return std::nullopt;
}

}  // namespace decycle::soak
