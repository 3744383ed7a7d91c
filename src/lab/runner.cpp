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

/// The records' "seed_mode" field: constant since every cell runs its
/// trials on one shared topology, kept so the golden JSONL bytes stay
/// stable.
constexpr const char* kSeedModeTag = "shared";

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

}  // namespace

CellResult LabRunner::run_cell(const ScenarioCell& cell) const {
  DECYCLE_CHECK_MSG(cell.trials >= 1, "cell needs at least one trial");
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t cseed = cell.cell_seed();

  CellResult res;
  res.cell = cell;
  res.trials = cell.trials;

  // One topology per cell, pinned under its content hash and submitted as
  // one engine batch — sibling cells on the same topology content
  // (different algo/adversary) hit the session cache.
  util::Rng grng(util::splitmix64(cseed ^ kGraphTag));
  BuiltTopology topology = build_topology(cell, grng);
  res.description = std::move(topology.description);
  res.truth = topology.truth;
  res.certified_epsilon = topology.certified_epsilon;
  graph::IdAssignment ids = graph::IdAssignment::identity(topology.graph.num_vertices());
  const engine::PinnedGraphPtr pinned = engine::pin(std::move(topology.graph), std::move(ids));
  res.vertices = pinned->graph.num_vertices();
  res.edges = pinned->graph.num_edges();

  std::vector<engine::Query> queries(cell.trials);
  for (std::size_t i = 0; i < cell.trials; ++i) {
    queries[i] = trial_query(cell, engine::trial_seed(cseed, i));
  }
  // Verdicts come back in trial order, so the serial reduction below cannot
  // observe lane boundaries or scheduling. Counter aggregation is generic:
  // each counter folds per its declared kind, whatever algorithm the cell
  // ran.
  const std::vector<core::Verdict> verdicts = engine_->run_batch(pinned, queries);
  const std::span<const core::CounterDef> counter_defs = cell.algo->counters();
  res.counters.assign(counter_defs.size(), 0);
  for (const core::Verdict& v : verdicts) {
    DECYCLE_CHECK_MSG(v.counters.size() == counter_defs.size(),
                      "detector '" + std::string(cell.algo->name()) + "' returned " +
                          std::to_string(v.counters.size()) + " counter values for a " +
                          std::to_string(counter_defs.size()) +
                          "-entry counter table — run() and counters() drifted apart");
    res.rejections += v.accepted ? 0 : 1;
    res.rounds_total += v.stats.rounds_executed;
    res.rounds_max = std::max(res.rounds_max, v.stats.rounds_executed);
    res.messages_total += v.stats.total_messages;
    res.bits_total += v.stats.total_bits;
    res.max_link_bits = std::max(res.max_link_bits, v.stats.max_link_bits);
    res.max_bundle = std::max<std::uint64_t>(res.max_bundle, v.max_bundle_sequences);
    res.overflow_trials += v.overflow ? 1 : 0;
    res.dropped_total += v.stats.dropped_messages;
    res.truncated_trials += v.truncated ? 1 : 0;
    for (std::size_t c = 0; c < counter_defs.size(); ++c) {
      if (counter_defs[c].kind == core::CounterKind::kMax) {
        res.counters[c] = std::max(res.counters[c], v.counters[c]);
      } else {
        res.counters[c] += v.counters[c];
      }
    }
  }
  // Every trial runs the same detector with the same knobs, so trial 0's
  // resolved repetition count speaks for the cell.
  res.repetitions = verdicts.front().repetitions;
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
      .field("seed_mode", kSeedModeTag)
      .field("delivery", kDeliveryTag)
      .field("model", cell.model->name())
      .field("trials", trials)
      .field("cell_seed", cell.cell_seed());
  if (caps.has_repetitions) w.field("repetitions", repetitions);
  if (caps.uses_threshold_knobs) {
    w.field("budget", cell.budget.name()).field("track", cell.track);
  }
  w.key("graph")
      .begin_object()
      .field("description", description)
      .field("ground_truth", ground_truth_name(truth))
      .field("vertices", vertices)
      .field("edges", edges)
      .field("certified_eps", certified_epsilon)
      .end_object();
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
      .field("seed_mode", kSeedModeTag)
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
