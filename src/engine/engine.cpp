#include "engine/engine.hpp"

#include <string>

#include "util/check.hpp"

namespace decycle::engine {

DetectionEngine::DetectionEngine(const EngineOptions& options) : options_(options) {}

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

  for_lanes(options_.pool, queries.size(),
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

}  // namespace decycle::engine
