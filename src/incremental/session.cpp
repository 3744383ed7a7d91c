#include "incremental/session.hpp"

#include <algorithm>
#include <utility>

#include "graph/ids.hpp"
#include "util/check.hpp"

namespace decycle::incremental {

IncrementalSession::IncrementalSession(engine::DetectionEngine& engine, std::string name,
                                       graph::Vertex n)
    : engine_(engine), name_(std::move(name)), n_(n), detector_(n) {
  DECYCLE_CHECK_MSG(!name_.empty(), "incremental session: name must be non-empty");
}

BatchVerdicts IncrementalSession::apply(std::span<const Insert> batch) {
  BatchVerdicts out;
  out.closed.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [u, v] = batch[i];
    const bool closed = detector_.insert_fast(u, v);
    out.closed[i] = closed ? 1 : 0;
    out.closures += closed ? 1 : 0;
    edges_.emplace_back(std::min(u, v), std::max(u, v));
  }
  if (!batch.empty()) {
    dirty_ = true;
    if (pin_ != nullptr) {
      // The snapshot no longer matches the stream: retire its cached
      // sessions. The epoch bump makes in-flight leases the last users of
      // the old sessions (they complete, then die on release once a newer
      // epoch exists past capacity); the purge frees the idle ones now.
      pin_->epoch.fetch_add(1, std::memory_order_acq_rel);
      engine_.sessions().purge(pin_->hash);
    }
  }
  return out;
}

bool IncrementalSession::insert(graph::Vertex u, graph::Vertex v) {
  const Insert one{u, v};
  return apply({&one, 1}).closures == 1;
}

engine::PinnedGraphPtr IncrementalSession::checkpoint() {
  if (!dirty_ && pin_ != nullptr) return pin_;
  pin_ = engine::pin(graph::Graph::from_edges(n_, edges_), graph::IdAssignment::identity(n_));
  dirty_ = false;
  return pin_;
}

std::vector<core::Verdict> IncrementalSession::run_batch(
    std::span<const engine::Query> queries) {
  return engine_.run_batch(checkpoint(), queries);
}

}  // namespace decycle::incremental
