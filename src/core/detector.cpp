#include "core/detector.hpp"

#include <utility>

#include "baselines/c4_tester.hpp"
#include "baselines/clique_hcycle.hpp"
#include "baselines/color_coding.hpp"
#include "baselines/triangle_chs.hpp"
#include "core/cycle_detector.hpp"
#include "core/tester.hpp"
#include "core/threshold/threshold_tester.hpp"
#include "util/check.hpp"

namespace decycle::core {

DetectParams detect_params(const DetectorOptions& options) {
  return DetectParams{.k = options.k,
                      .pruning = options.pruning,
                      .fake_ids = options.fake_ids,
                      .naive_cap = options.naive_cap,
                      .trace = options.trace};
}

congest::Simulator::Options simulator_options(const DetectorOptions& options,
                                              std::uint64_t max_rounds) {
  congest::Simulator::Options out;
  out.max_rounds = max_rounds;
  out.drop = options.drop;
  out.record_rounds = options.record_rounds;
  return out;
}

const congest::CommModel& default_comm_model(const DetectorCapabilities& caps) {
  // Congest first: the historical default, and the choice that keeps every
  // pre-model run_fresh call byte-identical.
  return supports_model(caps, congest::CommModelKind::kCongest) ? congest::CommModel::congest()
                                                                  : congest::CommModel::clique();
}

Verdict Detector::run_fresh(const graph::Graph& g, const graph::IdAssignment& ids,
                            const DetectorOptions& options) const {
  congest::Simulator sim(g, ids, default_comm_model(capabilities()));
  return run(sim, options);
}

std::uint64_t counter_value(const Detector& d, std::span<const std::uint64_t> values,
                            std::string_view name) {
  const std::span<const CounterDef> defs = d.counters();
  for (std::size_t c = 0; c < defs.size() && c < values.size(); ++c) {
    if (defs[c].name == name) return values[c];
  }
  return 0;
}

std::string capability_line(const Detector& d) {
  const DetectorCapabilities& caps = d.capabilities();
  std::string out(d.name());
  out += ": k in [" + std::to_string(caps.min_k) + ", " + std::to_string(caps.max_k) + "]";
  std::string knobs = "reps";
  if (caps.uses_epsilon) knobs += ", eps";
  if (caps.uses_threshold_knobs) knobs += ", budget, track";
  if (!caps.has_repetitions) knobs = "none";
  out += "; knobs: " + knobs;
  if (caps.draws_edge) out += "; draws one target edge per run";
  out += caps.distributed ? "; distributed" : "; centralized";
  out += "; models: " + congest::model_mask_names(caps.models);
  out += " — ";
  out += caps.summary;
  return out;
}

const DetectorRegistry& DetectorRegistry::builtin() {
  // Registration happens here, explicitly and in fixed order, rather than
  // via static self-registration objects: those are silently dropped when
  // the library is linked statically and nothing references their
  // translation unit.
  static const DetectorRegistry registry = [] {
    DetectorRegistry r;
    r.add(make_tester_detector());
    r.add(make_edge_checker_detector());
    r.add(threshold::make_threshold_detector());
    r.add(baselines::make_c4_detector());
    r.add(baselines::make_triangle_detector());
    r.add(baselines::make_color_coding_detector());
    r.add(baselines::make_clique_hcycle_detector());
    return r;
  }();
  return registry;
}

void DetectorRegistry::add(std::unique_ptr<Detector> detector) {
  DECYCLE_CHECK_MSG(detector != nullptr, "cannot register a null detector");
  const std::string_view name = detector->name();
  DECYCLE_CHECK_MSG(!name.empty(), "detector name must be non-empty");
  DECYCLE_CHECK_MSG(find(name) == nullptr,
                    "detector '" + std::string(name) + "' is already registered");
  DECYCLE_CHECK_MSG(detector->capabilities().min_k <= detector->capabilities().max_k,
                    "detector '" + std::string(name) + "' has an empty k range");
  order_.push_back(detector.get());
  owned_.push_back(std::move(detector));
}

const Detector* DetectorRegistry::find(std::string_view name) const noexcept {
  for (const Detector* d : order_) {
    if (d->name() == name) return d;
  }
  return nullptr;
}

const Detector& DetectorRegistry::require(std::string_view name) const {
  const Detector* d = find(name);
  DECYCLE_CHECK_MSG(d != nullptr, "unknown detection algorithm '" + std::string(name) +
                                      "' (known: " + known_names() + ")");
  return *d;
}

std::string DetectorRegistry::known_names() const {
  std::string out;
  for (const Detector* d : order_) {
    if (!out.empty()) out += ", ";
    out += d->name();
  }
  return out;
}

std::string DetectorRegistry::names_supporting_k(unsigned k) const {
  std::string out;
  for (const Detector* d : order_) {
    const DetectorCapabilities& caps = d->capabilities();
    if (k < caps.min_k || k > caps.max_k) continue;
    if (!out.empty()) out += ", ";
    out += d->name();
  }
  return out;
}

std::string DetectorRegistry::names_supporting_model(congest::CommModelKind kind) const {
  std::string out;
  for (const Detector* d : order_) {
    if (!supports_model(d->capabilities(), kind)) continue;
    if (!out.empty()) out += ", ";
    out += d->name();
  }
  return out;
}

std::string DetectorRegistry::validate_model(const Detector& d,
                                             const congest::CommModel& model) const {
  const DetectorCapabilities& caps = d.capabilities();
  if (supports_model(caps, model.kind())) return {};
  std::string msg = "algorithm '" + std::string(d.name()) + "' runs under models [" +
                    congest::model_mask_names(caps.models) + "], got model '" +
                    std::string(model.name()) + "'";
  const std::string alternatives = names_supporting_model(model.kind());
  msg += alternatives.empty() ? " (no registered algorithm accepts this model)"
                              : " (algorithms accepting model=" + std::string(model.name()) +
                                    ": " + alternatives + ")";
  return msg;
}

std::string DetectorRegistry::validate_k(const Detector& d, unsigned k) const {
  const DetectorCapabilities& caps = d.capabilities();
  if (k >= caps.min_k && k <= caps.max_k) return {};
  std::string msg = "algorithm '" + std::string(d.name()) + "' supports k in [" +
                    std::to_string(caps.min_k) + ", " + std::to_string(caps.max_k) +
                    "], got k=" + std::to_string(k);
  const std::string alternatives = names_supporting_k(k);
  msg += alternatives.empty() ? " (no registered algorithm accepts this k)"
                              : " (algorithms accepting k=" + std::to_string(k) + ": " +
                                    alternatives + ")";
  return msg;
}

}  // namespace decycle::core
