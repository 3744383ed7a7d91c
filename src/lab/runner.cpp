#include "lab/runner.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "core/detector.hpp"
#include "engine/graph_store.hpp"
#include "engine/lanes.hpp"
#include "graph/ids.hpp"
#include "lab/json.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::lab {

namespace {

// Seed-stream tags: every random decision of a trial draws from a stream
// derived from (cell key, trial index, purpose tag), so outcomes are pure
// functions of the cell content — independent of lanes, threads, and the
// rest of the matrix. (The per-trial target edge of draws_edge detectors
// uses its own tag inside core/cycle_detector.cpp, derived from the same
// trial seed.)
constexpr std::uint64_t kGraphTag = 0x67726170685f5f31ULL;  // "graph__1"
constexpr std::uint64_t kDropTag = 0x64726f705f5f5f31ULL;   // "drop___1"

/// The records' "delivery" field: constant since the simulator has one
/// delivery path, kept so the golden JSONL bytes stay stable.
constexpr const char* kDeliveryTag = "arena";

struct TrialOutcome {
  bool rejected = false;
  bool overflow = false;
  GroundTruth truth = GroundTruth::kUnknown;
  double certified_epsilon = 0.0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t max_link_bits = 0;
  std::uint64_t max_bundle = 0;
  std::uint64_t dropped = 0;
  bool truncated = false;
  std::size_t repetitions = 0;             ///< detector-resolved reps/sweeps/iters
  std::vector<std::uint64_t> counters;     ///< aligned with the detector's table
};

/// The fully resolved engine query for one trial — registry dispatch:
/// every algorithm, core testers and baselines alike, travels through the
/// same Detector::run call; no per-algorithm branches.
engine::Query trial_query(const ScenarioCell& cell, std::uint64_t trial_seed) {
  engine::Query q;
  q.detector = cell.algo;
  q.model = cell.model;
  q.options.k = cell.k;
  q.options.epsilon = cell.epsilon;
  q.options.seed = trial_seed;
  q.options.repetitions = cell.repetitions;
  q.options.budget = cell.budget;
  q.options.max_tracked = cell.track;
  q.options.drop = make_drop_filter(cell.adversary, util::splitmix64(trial_seed ^ kDropTag));
  return q;
}

/// Folds one verdict plus its instance facts into the per-trial slot.
TrialOutcome trial_outcome(const ScenarioCell& cell, GroundTruth truth, double certified_epsilon,
                           std::uint64_t vertices, std::uint64_t edges, core::Verdict verdict) {
  TrialOutcome out;
  out.truth = truth;
  out.certified_epsilon = certified_epsilon;
  out.vertices = vertices;
  out.edges = edges;
  out.rejected = !verdict.accepted;
  out.overflow = verdict.overflow;
  out.truncated = verdict.truncated;
  out.max_bundle = verdict.max_bundle_sequences;
  out.rounds = verdict.stats.rounds_executed;
  out.messages = verdict.stats.total_messages;
  out.bits = verdict.stats.total_bits;
  out.max_link_bits = verdict.stats.max_link_bits;
  out.dropped = verdict.stats.dropped_messages;
  out.repetitions = verdict.repetitions;
  DECYCLE_CHECK_MSG(verdict.counters.size() == cell.algo->counters().size(),
                    "detector '" + std::string(cell.algo->name()) + "' returned " +
                        std::to_string(verdict.counters.size()) + " counter values for a " +
                        std::to_string(cell.algo->counters().size()) +
                        "-entry counter table — run() and counters() drifted apart");
  out.counters = std::move(verdict.counters);
  return out;
}

}  // namespace

CellResult LabRunner::run_cell(const ScenarioCell& cell) const {
  DECYCLE_CHECK_MSG(cell.trials >= 1, "cell needs at least one trial");
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t cseed = cell.cell_seed();

  CellResult res;
  res.cell = cell;
  res.trials = cell.trials;

  // Per-trial outcomes land in an indexed slot, so nothing downstream can
  // observe lane boundaries or scheduling.
  std::vector<TrialOutcome> outcomes(cell.trials);

  if (cell.seed_mode == SeedMode::kSharedGraph) {
    // Shared-graph policy: one topology per cell, pinned under its content
    // hash and submitted as one engine batch — sibling cells on the same
    // topology content (different algo/adversary) hit the session cache.
    util::Rng grng(util::splitmix64(cseed ^ kGraphTag));
    BuiltTopology shared = build_topology(cell, grng);
    res.description = shared.description;
    res.certified_epsilon = shared.certified_epsilon;
    const GroundTruth truth = shared.truth;
    const double cert = shared.certified_epsilon;
    graph::IdAssignment ids = graph::IdAssignment::identity(shared.graph.num_vertices());
    const engine::PinnedGraphPtr pinned = engine::pin(std::move(shared.graph), std::move(ids));
    const std::uint64_t vertices = pinned->graph.num_vertices();
    const std::uint64_t edges = pinned->graph.num_edges();

    std::vector<engine::Query> queries(cell.trials);
    for (std::size_t i = 0; i < cell.trials; ++i) {
      queries[i] = trial_query(cell, engine::trial_seed(cseed, i));
    }
    std::vector<core::Verdict> verdicts = engine_->run_batch(pinned, queries);
    for (std::size_t i = 0; i < cell.trials; ++i) {
      outcomes[i] = trial_outcome(cell, truth, cert, vertices, edges, std::move(verdicts[i]));
    }
  } else {
    // Fresh-graph policy: every trial draws its own topology from the trial
    // seed, so sessions cannot be shared — each query runs on its own
    // Simulator, lanes via the same for_lanes dispatch as the batch path.
    res.description = cell.family;
    engine::for_lanes(options_.pool, cell.trials,
                      [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          const std::uint64_t tseed = engine::trial_seed(cseed, i);
                          util::Rng trng(util::splitmix64(tseed ^ kGraphTag));
                          const BuiltTopology topo = build_topology(cell, trng);
                          const graph::IdAssignment ids =
                              graph::IdAssignment::identity(topo.graph.num_vertices());
                          congest::Simulator sim(topo.graph, ids, *cell.model);
                          core::Verdict verdict =
                              cell.algo->run(sim, trial_query(cell, tseed).options);
                          outcomes[i] = trial_outcome(cell, topo.truth, topo.certified_epsilon,
                                                      topo.graph.num_vertices(),
                                                      topo.graph.num_edges(), std::move(verdict));
                        }
                      });
  }

  // Serial reduction in trial order (sums are integers except the
  // certificate mean, whose fixed summation order keeps it deterministic).
  // Counter aggregation is generic: each counter folds per its declared
  // kind, whatever algorithm the cell ran.
  const std::span<const core::CounterDef> counter_defs = cell.algo->counters();
  res.counters.assign(counter_defs.size(), 0);
  double cert_sum = 0.0;
  for (const TrialOutcome& t : outcomes) {
    cert_sum += t.certified_epsilon;
    res.rejections += t.rejected ? 1 : 0;
    res.total_vertices += t.vertices;
    res.total_edges += t.edges;
    res.rounds_total += t.rounds;
    res.rounds_max = std::max(res.rounds_max, t.rounds);
    res.messages_total += t.messages;
    res.bits_total += t.bits;
    res.max_link_bits = std::max(res.max_link_bits, t.max_link_bits);
    res.max_bundle = std::max(res.max_bundle, t.max_bundle);
    res.overflow_trials += t.overflow ? 1 : 0;
    res.dropped_total += t.dropped;
    res.truncated_trials += t.truncated ? 1 : 0;
    for (std::size_t c = 0; c < counter_defs.size(); ++c) {
      if (counter_defs[c].kind == core::CounterKind::kMax) {
        res.counters[c] = std::max(res.counters[c], t.counters[c]);
      } else {
        res.counters[c] += t.counters[c];
      }
    }
  }
  // Every trial of a cell runs the same family, so trial 0 speaks for the
  // cell's ground truth in fresh-graph mode too — and the same detector
  // with the same knobs, so trial 0's resolved repetition count speaks for
  // the cell as well.
  res.truth = outcomes.front().truth;
  res.repetitions = outcomes.front().repetitions;
  if (cell.seed_mode != SeedMode::kSharedGraph) {
    res.certified_epsilon = cert_sum / static_cast<double>(cell.trials);
  }
  res.reject_interval = util::wilson_interval(res.rejections, res.trials);
  res.soundness_violation = res.truth == GroundTruth::kCkFree && res.rejections > 0;
  res.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return res;
}

std::vector<CellResult> LabRunner::run_matrix(std::span<const ScenarioCell> cells) const {
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (const ScenarioCell& cell : cells) {
    results.push_back(run_cell(cell));
    if (options_.progress != nullptr) {
      const CellResult& r = results.back();
      *options_.progress << "[" << results.size() << "/" << cells.size() << "] " << r.cell.key()
                         << " reject_rate=" << json_double(r.reject_interval.estimate)
                         << (options_.include_timing
                                 ? " elapsed_s=" + json_double(r.elapsed_seconds)
                                 : std::string())
                         << "\n";
    }
  }
  return results;
}

std::uint64_t CellResult::counter(std::string_view name) const {
  return core::counter_value(*cell.algo, counters, name);
}

std::string CellResult::to_json(bool include_timing) const {
  const core::DetectorCapabilities& caps = cell.algo->capabilities();
  const double trials_d = static_cast<double>(trials);
  JsonWriter w;
  w.begin_object()
      .field("type", "cell")
      .field("index", cell.index)
      .field("family", cell.family)
      .field("k", cell.k)
      .field("eps", cell.epsilon)
      .field("n", cell.n)
      .field("adversary", cell.adversary.name())
      .field("algo", cell.algo->name())
      .field("seed_mode", seed_mode_name(cell.seed_mode))
      .field("delivery", kDeliveryTag)
      .field("model", cell.model->name())
      .field("trials", trials)
      .field("cell_seed", cell.cell_seed());
  if (caps.has_repetitions) w.field("repetitions", repetitions);
  if (caps.uses_threshold_knobs) {
    w.field("budget", cell.budget.name()).field("track", cell.track);
  }
  w.key("graph").begin_object().field("description", description).field(
      "ground_truth", ground_truth_name(truth));
  if (cell.seed_mode == SeedMode::kSharedGraph) {
    w.field("vertices", total_vertices / std::max<std::uint64_t>(trials, 1))
        .field("edges", total_edges / std::max<std::uint64_t>(trials, 1))
        .field("certified_eps", certified_epsilon);
  } else {
    w.field("mean_vertices", static_cast<double>(total_vertices) / trials_d)
        .field("mean_edges", static_cast<double>(total_edges) / trials_d)
        .field("mean_certified_eps", certified_epsilon);
  }
  w.end_object();
  w.field("rejections", rejections)
      .field("reject_rate", reject_interval.estimate)
      .field("wilson_low", reject_interval.low)
      .field("wilson_high", reject_interval.high)
      .field("rounds_mean", static_cast<double>(rounds_total) / trials_d)
      .field("rounds_max", rounds_max)
      .field("messages_total", messages_total)
      .field("bits_total", bits_total)
      .field("max_link_bits", max_link_bits)
      .field("max_bundle", max_bundle)
      .field("overflow_trials", overflow_trials)
      .field("dropped_total", dropped_total)
      .field("truncated_trials", truncated_trials);
  // Detector counters flow through generically: emitted in table order
  // under their table names (the threshold family's seeded_total …
  // peak_tracked fields keep their pre-registry bytes).
  const std::span<const core::CounterDef> counter_defs = cell.algo->counters();
  for (std::size_t c = 0; c < counter_defs.size() && c < counters.size(); ++c) {
    if (counter_defs[c].emit) w.field(counter_defs[c].name, counters[c]);
  }
  w.field("soundness_violation", soundness_violation);
  if (include_timing) w.field("elapsed_s", elapsed_seconds);
  w.end_object();
  return std::move(w).str();
}

std::string meta_record(const ScenarioSpec& spec, std::size_t num_cells) {
  JsonWriter w;
  w.begin_object()
      .field("type", "meta")
      .field("tool", "decycle_lab")
      .field("format", 1)
      .field("seed", spec.seed)
      .field("trials", spec.trials)
      .field("reps", spec.repetitions)
      .field("budget", spec.budget.name())
      .field("track", spec.track)
      .field("seed_mode", seed_mode_name(spec.seed_mode))
      .field("delivery", kDeliveryTag)
      .field("cells", num_cells);
  w.key("axes").begin_object();
  w.key("family").begin_array();
  for (const auto& f : spec.families) w.value(f);
  w.end_array();
  w.key("k").begin_array();
  for (const unsigned k : spec.ks) w.value(k);
  w.end_array();
  w.key("eps").begin_array();
  for (const double e : spec.epsilons) w.value(e);
  w.end_array();
  w.key("n").begin_array();
  for (const std::uint64_t n : spec.sizes) w.value(n);
  w.end_array();
  w.key("adversary").begin_array();
  for (const auto& a : spec.adversaries) w.value(a.name());
  w.end_array();
  w.key("model").begin_array();
  for (const congest::CommModel* m : spec.models) w.value(m->name());
  w.end_array();
  w.key("algo").begin_array();
  for (const core::Detector* a : spec.algos) w.value(a->name());
  w.end_array();
  w.end_object();  // axes
  w.end_object();
  return std::move(w).str();
}

std::string matrix_jsonl(const ScenarioSpec& spec, std::span<const CellResult> results,
                         bool include_timing) {
  std::string out = meta_record(spec, results.size());
  out.push_back('\n');
  for (const CellResult& r : results) {
    out += r.to_json(include_timing);
    out.push_back('\n');
  }
  return out;
}

}  // namespace decycle::lab
