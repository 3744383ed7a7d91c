/// \file runner.hpp
/// \brief Batched execution runtime for scenario matrices.
///
/// The runner executes every cell of an expanded matrix by submitting one
/// engine::Query per trial to its DetectionEngine (DESIGN.md §12): trials
/// are partitioned into contiguous lanes across the shared ThreadPool, each
/// lane leases one cached Simulator session that is reset() between trials
/// instead of rebuilt (the estimator-workload hot path — see DESIGN.md §6,
/// and a cache hit across cells that share topology content), and every
/// trial's seed is derived from the cell's content key and the trial index
/// alone. Per-trial outcomes are stored by index and reduced serially, so a
/// matrix produces byte-identical JSON for any thread count — the property
/// nightly CI diffs against a golden file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "lab/scenario.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace decycle::lab {

struct LabOptions {
  util::ThreadPool* pool = nullptr;  ///< trial-level parallelism (lanes)
  /// Adds wall-clock fields to the JSON. Off by default: timing would break
  /// the byte-identical golden-output contract.
  bool include_timing = false;
  std::ostream* progress = nullptr;  ///< optional per-cell progress lines
};

/// Aggregated outcome of one cell's trials. All aggregates are integer
/// sums/maxima over per-trial records (doubles derived only at the end), so
/// they cannot depend on scheduling.
struct CellResult {
  ScenarioCell cell;

  // Instance info. For kSharedGraph the exact topology; for kFreshGraph
  // per-trial topologies summarized by integer totals.
  std::string description;
  GroundTruth truth = GroundTruth::kUnknown;
  std::uint64_t total_vertices = 0;  ///< sum over trials (1 topology: n * trials)
  std::uint64_t total_edges = 0;
  double certified_epsilon = 0.0;  ///< shared topology's certificate (0 for fresh mode)
  /// Repetitions / sweeps / iterations the detector resolved (Verdict::
  /// repetitions); 0 for one-shot algorithms like the edge checker.
  std::size_t repetitions = 0;

  std::uint64_t trials = 0;
  std::uint64_t rejections = 0;
  util::ProportionInterval reject_interval{0, 0, 1};

  std::uint64_t rounds_total = 0;
  std::uint64_t rounds_max = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t bits_total = 0;
  std::uint64_t max_link_bits = 0;
  std::uint64_t max_bundle = 0;  ///< Lemma-3 instrumentation: max |S| broadcast
  std::uint64_t overflow_trials = 0;
  std::uint64_t dropped_total = 0;
  /// Trials whose run hit the internal round cap instead of quiescing
  /// (Verdict::truncated) — must stay 0; nonzero means a bound bug.
  std::uint64_t truncated_trials = 0;

  /// Detector instrumentation, aligned index-for-index with the cell's
  /// Detector::counters() table and aggregated per each counter's kind
  /// (sum or max over trials). Counters marked emit are written to the
  /// JSONL record under their table names — e.g. the threshold family's
  /// seeded_total … peak_tracked — so algorithm-specific fields flow
  /// through the runner without per-algorithm code.
  std::vector<std::uint64_t> counters;
  /// True when a provably Ck-free instance produced a rejection — impossible
  /// while witness validation is on; nightly asserts it stays false.
  bool soundness_violation = false;

  double elapsed_seconds = 0.0;  ///< wall clock (reported only with include_timing)

  /// Value of the named counter from the cell detector's table; 0 when the
  /// detector declares no such counter (convenience for tests and benches).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// One JSONL record (no trailing newline).
  [[nodiscard]] std::string to_json(bool include_timing) const;
};

class LabRunner {
 public:
  explicit LabRunner(const LabOptions& options = {})
      : options_(options),
        engine_(std::make_unique<engine::DetectionEngine>(
            engine::EngineOptions{.pool = options.pool})) {}

  /// Runs one cell's trials: one engine query per trial, lanes across the
  /// pool, leased-session Simulator reuse within a lane.
  [[nodiscard]] CellResult run_cell(const ScenarioCell& cell) const;

  /// Runs every cell in order.
  [[nodiscard]] std::vector<CellResult> run_matrix(std::span<const ScenarioCell> cells) const;

  [[nodiscard]] const LabOptions& options() const noexcept { return options_; }

  /// The runner's engine (session cache introspection; tests/benches).
  [[nodiscard]] const engine::DetectionEngine& engine() const noexcept { return *engine_; }

  /// Session-cache counters accumulated across every cell this runner ran —
  /// what `decycle_lab --engine-stats` prints.
  [[nodiscard]] engine::SessionStats session_stats() const { return engine_->session_stats(); }

 private:
  LabOptions options_;
  std::unique_ptr<engine::DetectionEngine> engine_;
};

/// The leading JSONL meta record for a matrix run (no trailing newline).
[[nodiscard]] std::string meta_record(const ScenarioSpec& spec, std::size_t num_cells);

/// Full JSONL document: meta record + one record per cell, one per line,
/// trailing newline at the end.
[[nodiscard]] std::string matrix_jsonl(const ScenarioSpec& spec,
                                       std::span<const CellResult> results, bool include_timing);

}  // namespace decycle::lab
