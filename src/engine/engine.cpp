#include "engine/engine.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace decycle::engine {

DetectionEngine::DetectionEngine(const EngineOptions& options)
    : options_(options), sessions_(options.session_capacity) {}

core::Verdict DetectionEngine::run_leased(SessionPool::Lease& lease, const PinnedGraphPtr& graph,
                                          const Query& q) const {
  DECYCLE_CHECK_MSG(q.detector != nullptr, "engine: query has no detector");
  DECYCLE_CHECK_MSG(core::supports_model(q.detector->capabilities(), q.model->kind()),
                    "engine: detector '" + std::string(q.detector->name()) +
                        "' does not run under model '" + std::string(q.model->name()) + "'");
  const SessionKey want{graph->hash, graph->epoch.load(std::memory_order_acquire),
                        q.model->kind()};
  if (!lease || !(lease.key() == want)) {
    lease.release();
    lease = sessions_.lease(graph, *q.model);
  }
  return q.detector->run(lease.sim(), q.options);
}

core::Verdict DetectionEngine::run_one(const PinnedGraphPtr& graph, const Query& q) const {
  DECYCLE_CHECK_MSG(graph != nullptr, "engine: run_one needs a pinned graph");
  SessionPool::Lease lease;
  return run_leased(lease, graph, q);
}

std::vector<core::Verdict> DetectionEngine::run_batch(const PinnedGraphPtr& graph,
                                                      std::span<const Query> queries) const {
  DECYCLE_CHECK_MSG(graph != nullptr, "engine: run_batch needs a pinned graph");
  std::vector<core::Verdict> out(queries.size());
  if (queries.empty()) return out;

  // Uniform batches skip the weighted partition entirely so they split via
  // lane_range — the exact historical boundaries the goldens were cut with.
  bool uniform = true;
  std::vector<std::uint64_t> weights(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    weights[i] = queries[i].weight;
    if (weights[i] != weights[0]) uniform = false;
  }

  for_lanes(options_.pool, queries.size(), uniform ? nullptr : weights.data(),
            [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
              // One lease held per lane, re-leased only when the session key
              // changes — within a homogeneous batch that is one lease for
              // the whole lane.
              SessionPool::Lease lease;
              for (std::size_t i = begin; i < end; ++i) {
                out[i] = run_leased(lease, graph, queries[i]);
              }
            });
  return out;
}

std::vector<std::uint64_t> reduce_counters(const core::Detector& d,
                                           std::span<const core::Verdict> verdicts) {
  const std::span<const core::CounterDef> defs = d.counters();
  std::vector<std::uint64_t> out(defs.size(), 0);
  for (const core::Verdict& v : verdicts) {
    DECYCLE_CHECK_MSG(v.counters.size() == defs.size(),
                      "engine: verdict counter table does not match detector '" +
                          std::string(d.name()) + "'");
    for (std::size_t c = 0; c < defs.size(); ++c) {
      out[c] = defs[c].kind == core::CounterKind::kSum ? out[c] + v.counters[c]
                                                       : std::max(out[c], v.counters[c]);
    }
  }
  return out;
}

DetectionEngine& shared_engine() {
  static DetectionEngine engine{EngineOptions{}};
  return engine;
}

}  // namespace decycle::engine
