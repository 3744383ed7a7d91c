#include "soak/serve_contract.hpp"

#include <algorithm>
#include <charconv>

#include "engine/engine.hpp"
#include "engine/graph_store.hpp"
#include "graph/ids.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"

namespace decycle::soak {

namespace {

/// Lowercase hex of \p value — matches the server's hash formatting, so the
/// checkpoint cross-check compares strings the wire actually carries.
std::string hex64(std::uint64_t value) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value, 16);
  DECYCLE_CHECK(ec == std::errc{});
  return std::string(buf, ptr);
}

}  // namespace

ServeReport check_serve(const incremental::InsertStream& stream, const SoakScenario& s,
                        const core::DetectorRegistry& registry, std::string_view only) {
  serve::ServerOptions server_options;
  server_options.workers = 1;
  serve::Server server(server_options);
  server.start();
  const auto call_ok = [&server](const serve::Request& request) {
    const std::string payload = serve::format_request(request);
    std::string reply = server.call(payload);
    DECYCLE_CHECK_MSG(serve::is_ok(reply),
                      "serve contract: request '" + payload + "' failed: " + reply);
    return reply;
  };

  serve::Request r;
  r.tenant = "soak";
  r.verb = serve::Verb::kCreate;
  r.n = stream.n;
  (void)call_ok(r);
  r.verb = serve::Verb::kInsert;
  const std::size_t batch = server_options.limits.max_insert_edges;
  for (std::size_t begin = 0; begin < stream.inserts.size(); begin += batch) {
    const auto first = stream.inserts.begin() + static_cast<std::ptrdiff_t>(begin);
    r.edges.assign(first, first + static_cast<std::ptrdiff_t>(
                                      std::min(batch, stream.inserts.size() - begin)));
    (void)call_ok(r);
  }

  ServeReport report;
  const engine::PinnedGraphPtr pin = engine::pin(
      graph::Graph::from_edges(stream.n, stream.inserts), graph::IdAssignment::identity(stream.n));
  report.hash = hex64(pin->hash);
  r.verb = serve::Verb::kCheckpoint;
  const std::string checkpoint = call_ok(r);
  if (checkpoint.rfind("OK checkpoint hash=" + report.hash + " ", 0) != 0) {
    report.mismatches.push_back({{}, MismatchKind::kDiverged,
                                 "checkpoint reply '" + checkpoint +
                                     "' but the direct pin hashes to " + report.hash});
  }

  engine::DetectionEngine direct;
  r.verb = serve::Verb::kQuery;
  r.k = s.k;
  r.epsilon = s.epsilon;
  r.seed = s.seed;
  r.repetitions = std::max<std::size_t>(1, s.repetitions);
  for (const core::Detector* d : registry.detectors()) {
    if (!only.empty() && d->name() != only) continue;
    if (s.k > server_options.limits.max_query_k || !registry.validate_k(*d, s.k).empty()) {
      continue;
    }
    r.algo = d;
    r.model = &core::default_comm_model(d->capabilities());
    core::DetectorOptions options;
    options.k = r.k;
    options.epsilon = r.epsilon;
    options.seed = r.seed;
    options.repetitions = r.repetitions;
    const std::string expected =
        "OK query " + serve::format_verdict(direct.run_one(
                          pin, engine::Query{.detector = d, .options = options, .model = r.model}));
    ++report.queries;
    const std::string payload = serve::format_request(r);
    for (const char* ask : {"first", "cached"}) {
      const std::string served = server.call(payload);
      if (served != expected) {
        report.mismatches.push_back({std::string(d->name()), MismatchKind::kDiverged,
                                     std::string(ask) + " reply '" + served +
                                         "' but the direct run gives '" + expected + "'"});
        break;
      }
    }
  }
  const serve::Server::CacheStats cache = server.verdict_cache_stats();
  report.verdict_hits = cache.hits;
  report.verdict_misses = cache.misses;
  server.stop();
  return report;
}

}  // namespace decycle::soak
