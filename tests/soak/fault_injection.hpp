/// Planted-fault detectors for soak-subsystem tests: deliberately broken
/// implementations of the Detector interface that the differential layer
/// must catch, and the shrinker must reduce. Test-only — never registered
/// in the builtin registry.
#pragma once

#include <atomic>
#include <memory>
#include <string_view>

#include "core/detector.hpp"
#include "graph/subgraph.hpp"

namespace decycle::soak_test {

/// Unsound by construction: claims "cycle found" whenever the instance
/// contains ANY cycle (of any length), with no witness. On a Ck-free
/// instance that still has cycles — e.g. a lone C_{k+1} — this is exactly
/// the planted soundness violation the differential must flag as kUnsound,
/// and the structure the shrinker must reduce to the bare offending cycle.
class FaultyRejector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "faulty_rejector"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    static constexpr core::DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .distributed = false,
        .summary = "test fault: rejects on any cycle, witnessless"};
    return caps;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions&) const override {
    core::Verdict v;
    v.accepted = !graph::girth(sim.graph()).has_value();
    v.rejecting_nodes = v.accepted ? 0 : 1;
    return v;
  }
};

/// Incomplete by construction: advertises the threshold-exact capability
/// surface but accepts everything. In the unlimited drop-free regime the
/// differential must flag its accepts on cyclic instances as kMissedCycle.
class SleepyAcceptor final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "sleepy_acceptor"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    static constexpr core::DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .uses_threshold_knobs = true,
        .distributed = false,
        .summary = "test fault: accepts everything"};
    return caps;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator&,
                                  const core::DetectorOptions&) const override {
    return {};
  }
};

/// Forges witnesses: advertises the threshold-exact capability surface and
/// rejects every cyclic graph with a "witness" of k copies of vertex 0. The
/// prefix contract queries it on every closure, where a check of the
/// verdict alone would pass it; only witness validation catches it.
class WitnessForger final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "witness_forger"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    static constexpr core::DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .uses_threshold_knobs = true,
        .distributed = false,
        .summary = "test fault: rejects any cycle with a forged witness"};
    return caps;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override {
    core::Verdict v;
    v.accepted = !graph::girth(sim.graph()).has_value();
    if (!v.accepted) {
      v.rejecting_nodes = 1;
      v.witness.assign(options.k, 0);
    }
    return v;
  }
};

/// Diverges from a served detector: registered under a builtin detector's
/// name, it runs that builtin and reports one extra rejecting node whenever
/// the graph contains a C_k. The server keeps answering with the builtin,
/// so the serve contract's direct side disagrees exactly on those
/// instances, and a divergence shrinks to a bare C_k.
class CycleMarkingDelegate final : public core::Detector {
 public:
  explicit CycleMarkingDelegate(std::string_view builtin)
      : inner_(core::DetectorRegistry::builtin().require(builtin)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    return inner_.capabilities();
  }

  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override {
    core::Verdict v = inner_.run(sim, options);
    if (graph::has_cycle(sim.graph(), options.k)) ++v.rejecting_nodes;
    return v;
  }

 private:
  const core::Detector& inner_;
};

/// Stateful by construction (detectors must be pure): rejects, witnessless,
/// only on its FIRST run in the process. The campaign sees the mismatch,
/// but the shrinker's fresh replay cannot reproduce it — the campaign must
/// degrade to an unshrunk repro instead of aborting.
class OneShotRejector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "one_shot_rejector"; }

  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override {
    static constexpr core::DetectorCapabilities caps{
        .min_k = 3,
        .max_k = 64,
        .distributed = false,
        .summary = "test fault: rejects exactly once, then accepts forever"};
    return caps;
  }

  [[nodiscard]] core::Verdict run(congest::Simulator&,
                                  const core::DetectorOptions&) const override {
    core::Verdict v;
    v.accepted = fired_.exchange(true);
    v.rejecting_nodes = v.accepted ? 0 : 1;
    return v;
  }

 private:
  mutable std::atomic<bool> fired_{false};
};

}  // namespace decycle::soak_test
