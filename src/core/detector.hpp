/// \file detector.hpp
/// \brief The unified detection-algorithm interface and registry.
///
/// The paper's experiments are head-to-head comparisons: Theorem 1's tester
/// against the specialized baselines it generalizes (the FRST C4 tester
/// whose technique fails for k >= 5, the CHS triangle tester), against the
/// threshold family, and against centralized references. Every one of them
/// is a `Detector`, implemented in its own source file:
///
///   * `Detector` — name(), capabilities() (supported k range, which knobs
///     apply, whether it is distributed, which communication models it runs
///     under), a typed counter table for algo-specific instrumentation, and
///     run(Simulator&, DetectorOptions) -> Verdict;
///   * `DetectorOptions` — the one options struct: every knob of every
///     algorithm, each settable in exactly one place;
///   * `Verdict` — one result surface: accepted/witness/truncated/RunStats
///     plus the counter values aligned with the detector's counter table.
///     The witness is always a validated cycle in *topology vertices*
///     (graph::Vertex); NodeId stays an implementation detail of the node
///     programs (see witness.hpp for the validation step that converts);
///   * `DetectorRegistry` — the fixed-order collection of built-in
///     detectors (tester, edge_checker, threshold, c4, triangle,
///     color_coding, clique_hcycle) that consumers iterate or look up by
///     name. Adding an algorithm is one class and one registration.
///
/// Determinism contract: run() must be a pure function of (topology, ids,
/// options) — bit-identical whichever lane thread runs it, and on a
/// simulator that already ran anything else (the reset-reuse contract every
/// session cache relies on) — because the lab's golden-file CI diffs
/// byte-level JSONL built from these verdicts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/comm_model.hpp"
#include "congest/simulator.hpp"
#include "core/detect_state.hpp"
#include "core/threshold/budget.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"

namespace decycle::core {

/// What a detector supports and which DetectorOptions knobs it reads.
/// Consumers use this to validate cells before running (the lab refuses
/// `algo=c4 k=5` at parse time) and to describe algorithms honestly
/// (`decycle_lab --list-algos`).
struct DetectorCapabilities {
  unsigned min_k = 3;   ///< smallest supported cycle length (inclusive)
  unsigned max_k = 64;  ///< largest supported cycle length (inclusive)
  /// Reads DetectorOptions::epsilon (drives the default repetition count).
  bool uses_epsilon = false;
  /// Reads DetectorOptions::budget / max_tracked (threshold family).
  bool uses_threshold_knobs = false;
  /// Verdict::repetitions is meaningful (repetitions / sweeps / iterations).
  /// False only for one-shot algorithms like the single-edge checker.
  bool has_repetitions = true;
  /// Targets one edge per run: DetectorOptions::edge, or a uniformly drawn
  /// edge derived from the seed when absent.
  bool draws_edge = false;
  /// Runs CONGEST rounds on the simulator. False = centralized reference
  /// (reads the topology only; RunStats stay zero, drop adversaries are
  /// vacuous).
  bool distributed = true;
  /// Bitmask of congest::model_bit(CommModelKind) values naming the
  /// communication models this detector runs under. run() must be handed a
  /// Simulator built with a model in this mask (the lab refuses
  /// `model=clique algo=tester` at parse time; the soak picks a compatible
  /// model per detector). Centralized detectors read the topology only, so
  /// every model is vacuously compatible — they set congest::kModelAll.
  std::uint8_t models = congest::kModelCongest;
  /// Drop-free runs are exact: an accept must agree with the DFS oracle
  /// whatever the knobs (beyond the draws_edge / threshold-knob regimes the
  /// soak already infers). The clique h-cycle detector sets this — its
  /// final phase collects the whole graph.
  bool exact_when_lossless = false;
  std::string_view summary;  ///< one-line description for listings
};

/// Whether \p caps admit a Simulator built under model \p kind.
[[nodiscard]] constexpr bool supports_model(const DetectorCapabilities& caps,
                                            congest::CommModelKind kind) noexcept {
  return (caps.models & congest::model_bit(kind)) != 0;
}

/// The model run_fresh (and the soak) builds for a detector: congest when
/// the mask admits it (the historical behaviour, byte-identical), clique
/// otherwise.
[[nodiscard]] const congest::CommModel& default_comm_model(const DetectorCapabilities& caps);

/// How a per-trial counter aggregates across a cell's trials.
enum class CounterKind : std::uint8_t { kSum, kMax };

/// One named instrumentation counter. The name doubles as the JSONL field
/// key when \p emit is set; non-emitted counters are still aggregated and
/// reachable programmatically (tests, benches) without perturbing the
/// byte-stable golden records of pre-existing cells.
struct CounterDef {
  std::string_view name;
  CounterKind kind = CounterKind::kSum;
  bool emit = true;
};

/// Unified options. Every detector reads the subset its capabilities
/// advertise and ignores the rest, so one struct parameterizes the whole
/// registry without per-algorithm plumbing.
struct DetectorOptions {
  unsigned k = 5;
  double epsilon = 0.1;    ///< farness parameter (uses_epsilon detectors)
  std::uint64_t seed = 1;  ///< all randomness derives from this
  /// Repetitions / sweeps / coloring iterations; 0 = the algorithm's own
  /// default (⌈e²·ln3/ε⌉ for the tester, 1 sweep for threshold, ⌈e^k·ln3⌉
  /// colorings for color coding, 64 iterations for the sampling baselines).
  std::size_t repetitions = 0;
  /// Threshold-family knobs (uses_threshold_knobs detectors).
  threshold::BudgetSchedule budget = threshold::BudgetSchedule::constant(16);
  std::size_t max_tracked = 8;  ///< 0 = unlimited
  /// Target edge for draws_edge detectors; when absent one is drawn
  /// uniformly from a stream derived from \p seed.
  std::optional<graph::Edge> edge;
  /// Phase-2 ablation knobs (tester, edge_checker, threshold): the pruning
  /// rule, Instruction 14's fake IDs, the naive pruner's family cap, and an
  /// optional execution trace — see detect_state.hpp.
  PruningMode pruning = PruningMode::kRepresentative;
  bool fake_ids = true;
  std::size_t naive_cap = 1u << 18;
  TraceSink* trace = nullptr;
  bool validate_witnesses = true;  ///< 1-sided-error enforcement (witness.hpp)
  congest::Simulator::DropFilter drop;  ///< optional message-loss adversary
  /// Keep per-round stats in Verdict::stats (RunStats::normalized_rounds).
  bool record_rounds = false;
};

/// k plus the Phase-2 ablation knobs, as the node programs take them.
[[nodiscard]] DetectParams detect_params(const DetectorOptions& options);

/// What every distributed detector hands Simulator::run: the caller's drop
/// adversary and record_rounds under the detector's own round cap.
[[nodiscard]] congest::Simulator::Options simulator_options(const DetectorOptions& options,
                                                            std::uint64_t max_rounds);

/// The unified verdict every detector returns. Aggregate fields that an
/// algorithm does not produce stay at their zero defaults, so downstream
/// reductions need no per-algorithm cases.
struct Verdict {
  bool accepted = true;             ///< no node rejected
  std::size_t rejecting_nodes = 0;  ///< nodes whose final check fired
  /// Validated witness cycle in topology vertices (empty when accepted).
  /// One type across the registry — NodeId never escapes the programs.
  std::vector<graph::Vertex> witness;
  /// Repetitions / sweeps / iterations the run was configured with (the
  /// resolved value, not the 0 sentinel); 0 for one-shot algorithms.
  std::size_t repetitions = 0;
  bool overflow = false;   ///< internal pruning cap hit (naive mode)
  bool truncated = false;  ///< hit the round cap instead of quiescing
  std::size_t max_bundle_sequences = 0;  ///< Lemma-3 instrumentation
  congest::RunStats stats;               ///< zero for centralized detectors
  /// Counter values aligned index-for-index with Detector::counters().
  std::vector<std::uint64_t> counters;
};

/// A detection algorithm. Implementations are stateless (everything a run
/// needs travels in DetectorOptions), so one instance serves all threads.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Canonical name — the lab's `algo=` axis value and the JSONL tag.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  [[nodiscard]] virtual const DetectorCapabilities& capabilities() const noexcept = 0;

  /// The algorithm's instrumentation table (fixed order; may be empty).
  /// Verdict::counters aligns with this span.
  [[nodiscard]] virtual std::span<const CounterDef> counters() const noexcept { return {}; }

  /// Runs the algorithm on \p sim's topology. Distributed detectors reset
  /// the simulator with their programs (the reuse contract) and leave them
  /// there, so callers may inspect per-node state afterwards; centralized
  /// ones read sim.graph()/sim.ids() only.
  [[nodiscard]] virtual Verdict run(congest::Simulator& sim,
                                    const DetectorOptions& options) const = 0;

  /// Convenience: builds a topology-only Simulator for (g, ids) under
  /// default_comm_model(capabilities()) and runs.
  [[nodiscard]] Verdict run_fresh(const graph::Graph& g, const graph::IdAssignment& ids,
                                  const DetectorOptions& options) const;
};

/// The value of counter \p name among \p values (aligned with \p d's
/// counters(), as in Verdict::counters); 0 when \p d declares no such
/// counter.
[[nodiscard]] std::uint64_t counter_value(const Detector& d, std::span<const std::uint64_t> values,
                                          std::string_view name);

/// One human-readable capability line for \p d: k range, knobs, execution
/// model — what `decycle_lab --list-algos` prints, so the CLI can never lie
/// about what `algo=` accepts.
[[nodiscard]] std::string capability_line(const Detector& d);

/// Ordered, named collection of detectors. builtin() holds the seven
/// algorithms of this repository in fixed registration order (tester,
/// edge_checker, threshold, c4, triangle, color_coding, clique_hcycle) —
/// the order is part of the output contract for listings and meta records.
/// Additional registries can be built for tests or extensions via add().
class DetectorRegistry {
 public:
  DetectorRegistry() = default;
  DetectorRegistry(const DetectorRegistry&) = delete;
  DetectorRegistry& operator=(const DetectorRegistry&) = delete;
  DetectorRegistry(DetectorRegistry&&) = default;
  DetectorRegistry& operator=(DetectorRegistry&&) = default;

  /// The process-wide registry of built-in algorithms.
  [[nodiscard]] static const DetectorRegistry& builtin();

  /// Registers \p detector (takes ownership). Throws CheckError on a
  /// duplicate or empty name.
  void add(std::unique_ptr<Detector> detector);

  /// nullptr when \p name is unknown.
  [[nodiscard]] const Detector* find(std::string_view name) const noexcept;

  /// Throws CheckError naming the known detectors when \p name is unknown.
  [[nodiscard]] const Detector& require(std::string_view name) const;

  /// All detectors in registration order.
  [[nodiscard]] std::span<const Detector* const> detectors() const noexcept { return order_; }

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

  /// Comma-separated names in registration order ("tester, edge_checker, ...").
  [[nodiscard]] std::string known_names() const;

  /// Comma-separated names of detectors whose k range admits \p k.
  [[nodiscard]] std::string names_supporting_k(unsigned k) const;

  /// Comma-separated names of detectors whose model mask admits \p kind.
  [[nodiscard]] std::string names_supporting_model(congest::CommModelKind kind) const;

  /// Empty string when \p d runs under \p model; otherwise an error naming
  /// the models \p d accepts and the registered alternatives that do run
  /// under \p model (mirrors validate_k).
  [[nodiscard]] std::string validate_model(const Detector& d,
                                           const congest::CommModel& model) const;

  /// Empty string when \p d supports cycle length \p k; otherwise an error
  /// naming the supported range and the registered alternatives that do
  /// accept \p k.
  [[nodiscard]] std::string validate_k(const Detector& d, unsigned k) const;

 private:
  std::vector<std::unique_ptr<Detector>> owned_;
  std::vector<const Detector*> order_;
};

}  // namespace decycle::core
