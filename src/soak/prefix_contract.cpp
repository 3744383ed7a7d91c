#include "soak/prefix_contract.hpp"

#include <algorithm>
#include <deque>
#include <span>
#include <string>

#include "engine/engine.hpp"
#include "graph/subgraph.hpp"
#include "incremental/incremental.hpp"
#include "incremental/session.hpp"
#include "util/check.hpp"

namespace decycle::soak {

namespace {

/// BFS over an explicit adjacency list: is \p to reachable from \p from?
/// The independent connectivity oracle — deliberately not union-find.
bool reachable(const std::vector<std::vector<graph::Vertex>>& adj, graph::Vertex from,
               graph::Vertex to, std::vector<std::uint32_t>& mark, std::uint32_t round) {
  if (from == to) return true;
  std::deque<graph::Vertex> queue{from};
  mark[from] = round;
  while (!queue.empty()) {
    const graph::Vertex w = queue.front();
    queue.pop_front();
    for (const graph::Vertex x : adj[w]) {
      if (mark[x] == round) continue;
      if (x == to) return true;
      mark[x] = round;
      queue.push_back(x);
    }
  }
  return false;
}

std::string joined(std::span<const graph::Vertex> cycle) {
  std::string out;
  for (const graph::Vertex v : cycle) {
    if (!out.empty()) out += "-";
    out += std::to_string(v);
  }
  return out;
}

/// Keeps the first mismatch of each (detector, kind), tagged with the
/// insert it surfaced at.
void note(PrefixReport& report, std::string_view detector, MismatchKind kind, std::size_t insert,
          const std::string& detail) {
  for (const CaseMismatch& m : report.mismatches) {
    if (m.kind == kind && m.detector == detector) return;
  }
  report.mismatches.push_back(
      {std::string(detector), kind, "insert " + std::to_string(insert) + ": " + detail});
}

/// One batch query through the session bridge, classified against \p expect.
void check_batch(PrefixReport& report, incremental::IncrementalSession& session,
                 const core::Detector& d, const graph::Graph& g, SoakScenario s, unsigned k,
                 graph::Edge inserted, const Expectation& expect, std::size_t insert) {
  s.k = k;
  engine::Query q;
  q.detector = &d;
  q.options = detector_options(s, d);
  if (d.capabilities().draws_edge) q.options.edge = inserted;
  ++report.batch_queries;
  std::string detail;
  MismatchKind kind = MismatchKind::kNone;
  try {
    kind = classify_verdict(g, k, session.run_batch({&q, 1})[0], expect, detail);
  } catch (const util::CheckError& e) {
    kind = MismatchKind::kUnsound;
    detail = "run threw: " + std::string(e.what());
  }
  if (kind != MismatchKind::kNone) {
    note(report, d.name(), kind, insert, "k=" + std::to_string(k) + " " + detail);
  }
}

}  // namespace

PrefixReport check_prefixes(const incremental::InsertStream& stream, const SoakScenario& s,
                            const core::DetectorRegistry& registry, std::string_view only) {
  // Explicit prefix adjacency for the BFS oracle, both directions.
  PrefixReport report;
  std::vector<std::vector<graph::Vertex>> adj(stream.n);
  std::vector<std::uint32_t> mark(stream.n, 0);
  std::uint32_t round = 0;

  std::vector<const core::Detector*> detectors;
  for (const core::Detector* d : registry.detectors()) {
    const core::DetectorCapabilities& caps = d->capabilities();
    if ((only.empty() || d->name() == only) && exact_regime(caps, s) &&
        core::supports_model(caps, congest::CommModelKind::kCongest)) {
      detectors.push_back(d);
    }
  }

  // The session re-runs the same inserts through its own union-find — its
  // closure verdicts must agree (internal consistency) — and its
  // epoch/purge path is what every batch query below leases against.
  engine::DetectionEngine engine;
  incremental::IncrementalSession session(engine, "prefix-contract", stream.n);
  incremental::ForestConnectivity fc(stream.n);
  std::vector<graph::Edge> edges;
  edges.reserve(stream.inserts.size());

  for (std::size_t i = 0; i < stream.inserts.size(); ++i) {
    const auto [u, v] = stream.inserts[i];
    const graph::Edge inserted{std::min(u, v), std::max(u, v)};
    const bool oracle_closed = reachable(adj, u, v, mark, ++round);
    const incremental::InsertVerdict verdict = fc.insert(u, v);
    const bool session_closed = session.insert(u, v);
    adj[u].push_back(v);
    adj[v].push_back(u);
    edges.push_back(inserted);
    if (session_closed != verdict.closed_cycle) {
      note(report, {}, MismatchKind::kClosure, i,
           "session verdict disagrees with detector verdict");
    }
    if (verdict.closed_cycle != oracle_closed) {
      note(report, {}, MismatchKind::kClosure, i,
           "closure verdict " + std::to_string(verdict.closed_cycle) + " but BFS oracle says " +
               std::to_string(oracle_closed));
      continue;
    }
    if (!verdict.closed_cycle && fc.closures() > 0) continue;

    const graph::Graph g = graph::Graph::from_edges(stream.n, edges);
    if (!verdict.closed_cycle) {
      // Still a forest: any rejection is unsound. Sweep k across prefixes
      // instead of querying every k at every prefix.
      for (const core::Detector* d : detectors) {
        const core::DetectorCapabilities& caps = d->capabilities();
        const unsigned lo = std::max(3u, caps.min_k);
        const unsigned hi = std::min(s.k, caps.max_k);
        if (lo > hi) continue;
        const unsigned k = lo + static_cast<unsigned>(i % (hi - lo + 1));
        check_batch(report, session, *d, g, s, k, inserted, Expectation{}, i);
      }
      continue;
    }

    ++report.closures;
    if (!graph::validate_cycle(g, verdict.witness)) {
      note(report, {}, MismatchKind::kClosure, i,
           "witness " + joined(verdict.witness) + " is not a cycle of the prefix graph");
      continue;
    }
    const unsigned len = static_cast<unsigned>(verdict.witness.size());
    if (len > s.k) continue;
    if (!graph::has_cycle_through_edge(g, len, u, v)) {
      note(report, {}, MismatchKind::kClosure, i,
           "DFS oracle finds no C_" + std::to_string(len) + " through " + std::to_string(u) + "-" +
               std::to_string(v));
      continue;
    }
    for (const core::Detector* d : detectors) {
      const core::DetectorCapabilities& caps = d->capabilities();
      if (len < caps.min_k || len > caps.max_k) continue;
      check_batch(report, session, *d, g, s, len, inserted,
                  Expectation{.has_ck = true, .must_reject = true, .where = {}}, i);
    }
  }
  return report;
}

}  // namespace decycle::soak
