#include "soak/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <ostream>
#include <utility>

#include "engine/lanes.hpp"
#include "lab/json.hpp"
#include "soak/prefix_contract.hpp"
#include "soak/serve_contract.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace decycle::soak {

namespace {

/// Tag of the stream the prefix contract's insertion order is drawn from.
constexpr std::uint64_t kOrderTag = 0x6f726465725f5f31ULL;  // "order__1"

/// Everything one instance produces, stored by batch-local index so the
/// serial reduction can never observe lane boundaries.
struct InstanceOutcome {
  SoakInstance instance;
  ReproCase probe;  ///< the instance as a case (kind none, no detector)
  std::vector<CaseMismatch> mismatches;
  DifferentialReport oracle;  ///< oracle contract only
  PrefixReport prefix;        ///< prefix contract only
  ServeReport serve;          ///< serve contract only
  std::string record;         ///< this instance's JSONL line
  std::size_t runs = 0;
  std::size_t rejections = 0;
  bool far_audit = false;     ///< counts toward the completeness audit
  bool far_rejected = false;  ///< the audited tester run rejected
};

/// The case \p contract checks on \p inst (see campaign.hpp).
ReproCase instance_case(Contract contract, const SoakInstance& inst, const SoakSpace& space) {
  ReproCase c;
  c.contract = contract;
  c.kind = MismatchKind::kNone;
  c.scenario = inst.scenario;
  c.stream.n = inst.graph.num_vertices();
  c.stream.seed = inst.instance_seed;
  const std::span<const graph::Edge> edges = inst.graph.edges();
  if (contract != Contract::kPrefix) {
    c.stream.inserts.assign(edges.begin(), edges.end());
    return c;
  }
  util::Rng rng(util::splitmix64(inst.instance_seed ^ kOrderTag));
  for (const std::uint32_t i : rng.permutation(static_cast<std::uint32_t>(edges.size()))) {
    c.stream.inserts.push_back(edges[i]);
  }
  c.scenario.k = space.max_k;
  c.scenario.repetitions = 1;
  c.scenario.budget = core::threshold::BudgetSchedule::none();
  c.scenario.track = 0;
  c.scenario.adversary = lab::AdversarySpec{};
  return c;
}

/// Starts a record; prefix and serve records name their contract.
lab::JsonWriter& begin_record(lab::JsonWriter& w, std::string_view type, Contract contract) {
  w.begin_object().field("type", type);
  if (contract != Contract::kOracle) w.field("mode", contract_name(contract));
  return w;
}

std::string meta_record(const CampaignOptions& options) {
  lab::JsonWriter w;
  begin_record(w, "meta", options.contract)
      .field("tool", "decycle_soak")
      .field("format", 1)
      .field("seed", options.seed)
      .field("instances_budget", options.instances)
      .field("seconds_budget", options.seconds)
      .field("shrink", true);
  w.key("space")
      .begin_object()
      .field("min_k", SoakSpace::kMinK)
      .field("max_k", options.space.max_k)
      .field("min_n", SoakSpace::kMinN)
      .field("max_n", options.space.max_n)
      .field("default_reps_probability", SoakSpace::kDefaultRepsProbability)
      .end_object();
  w.end_object();
  return std::move(w).str();
}

std::string instance_record(Contract contract, const InstanceOutcome& o) {
  const SoakInstance& inst = o.instance;
  lab::JsonWriter w;
  begin_record(w, "instance", contract)
      .field("index", inst.index)
      .field("seed", inst.instance_seed)
      .field("base", inst.base)
      .field("k", o.probe.scenario.k)
      .field("eps", inst.scenario.epsilon)
      .field("n", std::uint64_t{inst.graph.num_vertices()})
      .field("m", std::uint64_t{inst.graph.num_edges()});
  switch (contract) {
    case Contract::kOracle:
      w.field("reps", std::uint64_t{inst.scenario.repetitions})
          .field("budget", inst.scenario.budget.name())
          .field("track", inst.scenario.track)
          .field("adversary", inst.scenario.adversary.name())
          .field("certified_far", inst.certified_far)
          .field("oracle_has_ck", o.oracle.oracle.has_ck);
      w.key("verdicts").begin_object();
      for (const DetectorOutcome& d : o.oracle.outcomes) {
        w.field(d.detector->name(), !d.ran ? "skip" : d.rejected ? "reject" : "accept");
      }
      w.end_object();
      break;
    case Contract::kPrefix:
      w.field("closures", std::uint64_t{o.prefix.closures})
          .field("batch_queries", std::uint64_t{o.prefix.batch_queries});
      break;
    case Contract::kServe:
      w.field("hash", o.serve.hash).field("queries", std::uint64_t{o.serve.queries});
      break;
  }
  w.field("mismatches", std::uint64_t{o.mismatches.size()});
  w.end_object();
  return std::move(w).str();
}

std::string mismatch_record(const MismatchRecord& m) {
  lab::JsonWriter w;
  begin_record(w, "mismatch", m.repro.contract)
      .field("index", m.instance_index)
      .field("detector", m.repro.detector)
      .field("kind", mismatch_kind_name(m.repro.kind))
      .field("detail", m.detail)
      .field("original_vertices", m.original_vertices)
      .field("original_edges", m.original_edges)
      .field("shrunk_vertices", std::uint64_t{m.repro.stream.n})
      .field("shrunk_edges", std::uint64_t{m.repro.stream.inserts.size()})
      .field("shrink_probes", std::uint64_t{m.shrink_stats.probes})
      .field("shrink_rounds", std::uint64_t{m.shrink_stats.rounds})
      .field("shrink_converged", m.shrink_stats.converged)
      .field("scenario", m.repro.scenario.key())
      .field("repro", m.repro_path)
      .end_object();
  return std::move(w).str();
}

/// Shrinks one mismatch (serially, in index order) and optionally writes the
/// repro file.
MismatchRecord build_mismatch(const CampaignOptions& options,
                              const core::DetectorRegistry& registry, const InstanceOutcome& o,
                              const CaseMismatch& found) {
  MismatchRecord m;
  m.instance_index = o.instance.index;
  m.detail = found.detail;
  m.original_vertices = o.probe.stream.n;
  m.original_edges = o.probe.stream.inserts.size();
  m.repro = o.probe;
  m.repro.detector = found.detector;
  m.repro.kind = found.kind;
  try {
    ShrinkOutcome shrunk = shrink_mismatch(m.repro, mismatch_predicate(registry));
    m.repro = std::move(shrunk.repro);
    m.shrink_stats = shrunk.stats;
  } catch (const util::CheckError&) {
    // The mismatch fired in the campaign's run but not on the shrinker's
    // fresh replay — itself strong evidence (a reuse-contract or
    // statefulness bug, exactly what the soak hunts). Ship the original
    // instance unshrunk rather than aborting the campaign and losing every
    // repro.
    m.shrink_stats.converged = false;
    m.detail += " [shrink skipped: mismatch did not reproduce on a fresh replay]";
  }
  if (!options.repro_dir.empty()) {
    const std::string detector = m.repro.detector.empty() ? "" : m.repro.detector + "_";
    m.repro_path = options.repro_dir + "/soak_repro_i" + std::to_string(m.instance_index) + "_" +
                   std::string(contract_name(m.repro.contract)) + "_" + detector +
                   std::string(mismatch_kind_name(m.repro.kind)) + ".txt";
    std::ofstream out(m.repro_path, std::ios::binary);
    DECYCLE_CHECK_MSG(out.good(), "cannot open repro file: " + m.repro_path);
    write_repro(out, m.repro);
    out.flush();
    DECYCLE_CHECK_MSG(out.good(), "failed writing repro file: " + m.repro_path);
  }
  return m;
}

/// Runs \p options.contract on one drawn instance (a lane's work).
void check_instance(const CampaignOptions& options, const core::DetectorRegistry& registry,
                    InstanceOutcome& o) {
  o.probe = instance_case(options.contract, o.instance, options.space);
  switch (options.contract) {
    case Contract::kPrefix:
      o.prefix = check_prefixes(o.probe.stream, o.probe.scenario, registry);
      o.mismatches = o.prefix.mismatches;
      o.runs = o.prefix.batch_queries;
      return;
    case Contract::kServe:
      o.serve = check_serve(o.probe.stream, o.probe.scenario, registry);
      o.mismatches = o.serve.mismatches;
      o.runs = o.serve.queries;
      return;
    case Contract::kOracle: break;
  }
  o.oracle = run_differential(o.instance.graph, o.instance.scenario, registry);
  o.mismatches = o.oracle.mismatches;
  for (const DetectorOutcome& d : o.oracle.outcomes) {
    o.runs += d.ran ? 1 : 0;
    o.rejections += d.ran && d.rejected ? 1 : 0;
  }
  // Completeness audit: certified-far instances get one dedicated
  // amplified drop-free run of the epsilon-driven detector — Theorem 1
  // claims rejection w.p. >= 2/3 there, audited in aggregate.
  if (o.instance.certified_far) {
    const std::optional<bool> rejected =
        amplified_far_rejects(o.instance.graph, o.instance.scenario, registry);
    if (rejected.has_value()) {
      o.far_audit = true;
      o.far_rejected = *rejected;
      ++o.runs;
    }
  }
}

}  // namespace

CampaignSummary run_campaign(const CampaignOptions& options) {
  DECYCLE_CHECK_MSG(options.instances > 0 || options.seconds > 0.0,
                    "campaign needs a budget: set instances (--instances) or a wall-clock "
                    "limit (--seconds)");
  // Validate the space up front — a bad bound must fail here, loudly, not
  // inside a worker lane mid-batch.
  const std::string space_err = options.space.validate();
  DECYCLE_CHECK_MSG(space_err.empty(), space_err);
  const core::DetectorRegistry& registry =
      options.registry != nullptr ? *options.registry : core::DetectorRegistry::builtin();
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  CampaignSummary summary;
  summary.jsonl = meta_record(options);
  summary.jsonl.push_back('\n');

  util::ThreadPool* pool = options.pool;
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  const std::size_t batch_size = std::max<std::size_t>(16, 4 * workers);

  std::uint64_t next = 0;
  std::vector<InstanceOutcome> outcomes;
  std::uint64_t closures = 0;  // prefix contract
  std::uint64_t verdict_hits = 0;  // serve contract
  std::uint64_t verdict_misses = 0;
  for (;;) {
    std::size_t count = batch_size;
    if (options.instances > 0) {
      count = static_cast<std::size_t>(
          std::min<std::uint64_t>(count, options.instances - next));
    }
    if (count == 0) break;

    // Parallel phase: draw + contract + record, into indexed slots. Lanes
    // come from the engine's shared dispatch (engine/lanes.hpp) — the same
    // contiguous partition the lab runner and the harness use.
    outcomes.assign(count, InstanceOutcome{});
    const auto run_lane = [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        InstanceOutcome& o = outcomes[i];
        o.instance = options.space.draw(options.seed, next + i);
        check_instance(options, registry, o);
        o.record = instance_record(options.contract, o);
      }
    };
    engine::for_lanes(pool, count, run_lane);

    // Serial reduction in index order: tallies, log lines, and shrinking.
    for (InstanceOutcome& o : outcomes) {
      ++summary.instances;
      summary.detector_runs += o.runs;
      summary.rejections += o.rejections;
      summary.far_trials += o.far_audit ? 1 : 0;
      summary.far_rejections += o.far_rejected ? 1 : 0;
      closures += o.prefix.closures;
      verdict_hits += o.serve.verdict_hits;
      verdict_misses += o.serve.verdict_misses;
      summary.jsonl += o.record;
      summary.jsonl.push_back('\n');
      for (const CaseMismatch& found : o.mismatches) {
        summary.mismatches.push_back(build_mismatch(options, registry, o, found));
        summary.jsonl += mismatch_record(summary.mismatches.back());
        summary.jsonl.push_back('\n');
      }
    }
    next += count;
    if (options.progress != nullptr) {
      *options.progress << "[soak] instances=" << next
                        << " mismatches=" << summary.mismatches.size() << "\n";
    }
    if (options.instances > 0 && next >= options.instances) break;
    if (options.seconds > 0.0 && elapsed() >= options.seconds) break;
  }

  // The audit is meaningful only with a sample. At 20 trials the Wilson
  // upper bound stays above 2/3 for any plausible run of a healthy tester
  // (whose observed rate is ~1), and still collapses below it decisively
  // when completeness is genuinely broken.
  const util::ProportionInterval far =
      util::wilson_interval(summary.far_rejections, summary.far_trials);
  summary.completeness_violation = summary.far_trials >= 20 && far.high < 2.0 / 3.0;

  lab::JsonWriter w;
  begin_record(w, "summary", options.contract).field("instances", summary.instances);
  const std::uint64_t mismatches = summary.mismatches.size();
  switch (options.contract) {
    case Contract::kOracle:
      w.field("detector_runs", summary.detector_runs)
          .field("rejections", summary.rejections)
          .field("mismatches", mismatches)
          .field("far_trials", summary.far_trials)
          .field("far_rejections", summary.far_rejections)
          .field("far_wilson_high", far.high)
          .field("completeness_violation", summary.completeness_violation);
      break;
    case Contract::kPrefix:
      w.field("closures", closures)
          .field("batch_queries", summary.detector_runs)
          .field("mismatches", mismatches);
      break;
    case Contract::kServe:
      w.field("queries", summary.detector_runs)
          .field("mismatches", mismatches)
          .field("verdict_hits", verdict_hits)
          .field("verdict_misses", verdict_misses);
      break;
  }
  w.end_object();
  summary.jsonl += std::move(w).str();
  summary.jsonl.push_back('\n');
  return summary;
}

}  // namespace decycle::soak
