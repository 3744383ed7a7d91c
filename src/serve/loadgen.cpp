#include "serve/loadgen.hpp"

#include <exception>
#include <thread>
#include <unordered_set>

#include "lab/json.hpp"
#include "lab/scenario.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/kv.hpp"
#include "util/rng.hpp"

namespace decycle::serve {

namespace {

/// FNV-1a 64: the stable string fold the digests are built on (std::hash
/// would tie the report to one standard library's implementation).
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t pack_edge(graph::Vertex u, graph::Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// "key=value" token extraction from a reply body. Empty when absent.
std::string_view reply_field(std::string_view reply, std::string_view key) {
  std::string needle = " ";
  needle += key;
  needle += '=';
  const std::size_t pos = reply.find(needle);
  if (pos == std::string_view::npos) return {};
  const std::size_t start = pos + needle.size();
  const std::size_t end = reply.find(' ', start);
  return reply.substr(start, end == std::string_view::npos ? reply.size() - start : end - start);
}

/// The per-tenant seed used by both the op stream and the create request,
/// so the family topology the server builds is exactly reproducible by the
/// client-side duplicate mirror.
std::uint64_t tenant_seed(const LoadgenSpec& spec, std::size_t index) {
  return util::hash_combine(spec.seed, util::splitmix64(0x10adULL + index));
}

struct TenantDriver {
  TenantOutcome outcome;
  graph::Vertex n = 0;             ///< actual vertex count (create reply)
  std::uint64_t family_seed = 0;
  std::unordered_set<std::uint64_t> edges;  ///< duplicate-avoidance mirror
  util::Rng rng{0};
  bool done = false;
};

/// Sends one payload closed-loop, retrying sheds (REJECTED overload replies
/// carry live queue depths, so they are counted but never folded into the
/// determinism digests).
std::string call_retrying(Client& client, const std::string& payload, TenantOutcome& out) {
  for (;;) {
    std::string reply = client.call(payload);
    if (!is_rejected(reply)) return reply;
    ++out.sheds;
  }
}

void fold_reply(TenantOutcome& out, std::string_view reply) {
  out.reply_digest = util::hash_combine(out.reply_digest, fnv1a(reply));
}

}  // namespace

std::string InProcessClient::call(const std::string& payload) { return server_.call(payload); }

LoadgenReport run_loadgen(const LoadgenSpec& spec, const ClientFactory& factory) {
  DECYCLE_CHECK_MSG(spec.tenants > 0, "loadgen: need at least one tenant");
  DECYCLE_CHECK_MSG(spec.client_threads > 0, "loadgen: need at least one client thread");
  DECYCLE_CHECK_MSG(!spec.ks.empty() && !spec.epsilons.empty(),
                    "loadgen: query axes must be non-empty");

  // Resolve the query axes up front so a typo'd spec fails loudly here, and
  // precompute each algo's admissible k subset (e.g. c4 only accepts k=4).
  const core::DetectorRegistry& registry = core::DetectorRegistry::builtin();
  struct AlgoAxis {
    const core::Detector* detector;
    std::vector<unsigned> ks;
  };
  std::vector<AlgoAxis> axes;
  for (const std::string& name : spec.algos) {
    const core::Detector* detector = registry.find(name);
    DECYCLE_CHECK_MSG(detector != nullptr, "loadgen: unknown algo '" + name + "'");
    AlgoAxis axis{detector, {}};
    for (const unsigned k : spec.ks) {
      if (registry.validate_k(*detector, k).empty()) axis.ks.push_back(k);
    }
    DECYCLE_CHECK_MSG(!axis.ks.empty(),
                      "loadgen: no spec k is admissible for algo '" + name + "'");
    axes.push_back(std::move(axis));
  }
  DECYCLE_CHECK_MSG(!axes.empty(), "loadgen: need at least one algo");

  const std::span<const lab::FamilyInfo> families = lab::known_families();
  const std::size_t threads = std::min(spec.client_threads, spec.tenants);

  std::vector<TenantDriver> drivers(spec.tenants);
  for (std::size_t i = 0; i < spec.tenants; ++i) {
    TenantDriver& d = drivers[i];
    d.outcome.name = "t" + std::to_string(i);
    d.outcome.family = std::string(families[i % families.size()].name);
    d.family_seed = tenant_seed(spec, i);
    d.rng = util::Rng(util::hash_combine(d.family_seed, 0x0b5eedULL));
  }

  // One thread drives tenants i with i % threads == t, interleaving one op
  // per owned tenant per round — closed-loop per tenant, concurrent across
  // tenants.
  auto drive = [&](std::size_t thread_index) {
    const std::unique_ptr<Client> client = factory();
    std::vector<std::size_t> owned;
    for (std::size_t i = thread_index; i < spec.tenants; i += threads) owned.push_back(i);

    // Phase 0: create each owned tenant and seed its duplicate mirror with
    // the family's exact edge set (the server builds the same topology from
    // the same (family, k=5, n, seed) — replicated here via build_topology).
    for (const std::size_t i : owned) {
      TenantDriver& d = drivers[i];
      // hypercube's n is the dimension, not the vertex count — clamp it so
      // a default spec never asks for 2^64 vertices.
      const graph::Vertex family_n =
          d.outcome.family == "hypercube"
              ? std::min<graph::Vertex>(spec.n, 8)
              : spec.n;
      std::string payload = "create tenant=" + d.outcome.name +
                            " n=" + std::to_string(family_n) + " family=" + d.outcome.family +
                            " k=5 seed=" + std::to_string(d.family_seed);
      const std::string reply = call_retrying(*client, payload, d.outcome);
      if (is_error(reply)) {
        ++d.outcome.errors;
        fold_reply(d.outcome, reply);
        d.done = true;
        continue;
      }
      fold_reply(d.outcome, reply);
      d.n = util::parse_value<graph::Vertex>("n", reply_field(reply, "n"));
      lab::ScenarioCell cell;
      cell.family = d.outcome.family;
      cell.k = 5;
      cell.n = family_n;
      util::Rng family_rng(util::hash_combine(d.family_seed, 0x5e54e5e4ULL));
      const lab::BuiltTopology built = lab::build_topology(cell, family_rng);
      for (const auto& [u, v] : built.graph.edges()) d.edges.insert(pack_edge(u, v));
    }

    for (std::size_t round = 0; round < spec.ops_per_tenant; ++round) {
      for (const std::size_t i : owned) {
        TenantDriver& d = drivers[i];
        if (d.done) continue;
        const double u = d.rng.next_double();
        std::string payload;
        bool is_query = false;
        std::uint64_t batch_edges = 0;
        if (u < spec.mutate_ratio && d.n >= 2) {
          // Insert 1..4 fresh edges, duplicate-free against the mirror.
          const std::size_t want = 1 + static_cast<std::size_t>(d.rng.next_below(4));
          std::string list;
          for (std::size_t e = 0; e < want; ++e) {
            for (int attempt = 0; attempt < 64; ++attempt) {
              const auto a = static_cast<graph::Vertex>(d.rng.next_below(d.n));
              const auto b = static_cast<graph::Vertex>(d.rng.next_below(d.n));
              if (a == b) continue;
              if (!d.edges.insert(pack_edge(a, b)).second) continue;
              if (!list.empty()) list.push_back(',');
              list += std::to_string(a) + "-" + std::to_string(b);
              ++batch_edges;
              break;
            }
          }
          if (list.empty()) continue;  // graph saturated; skip this round
          payload = "insert tenant=" + d.outcome.name + " edges=" + list;
        } else if (u < spec.mutate_ratio + spec.checkpoint_ratio) {
          payload = "checkpoint tenant=" + d.outcome.name;
        } else {
          const AlgoAxis& axis = axes[d.rng.next_below(axes.size())];
          const unsigned k = axis.ks[d.rng.next_below(axis.ks.size())];
          const double eps = spec.epsilons[d.rng.next_below(spec.epsilons.size())];
          const std::uint64_t qseed = d.rng();
          payload = "query tenant=" + d.outcome.name + " algo=" +
                    std::string(axis.detector->name()) + " k=" + std::to_string(k) +
                    " eps=" + lab::json_double(eps) + " seed=" + std::to_string(qseed) +
                    " reps=" + std::to_string(spec.repetitions);
          is_query = true;
        }

        const std::string reply = call_retrying(*client, payload, d.outcome);
        fold_reply(d.outcome, reply);
        if (is_error(reply)) {
          ++d.outcome.errors;
          continue;
        }
        if (is_query) {
          ++d.outcome.queries;
          d.outcome.verdict_multiset += fnv1a(reply);  // wrapping: commutative
          if (reply_field(reply, "accepted") == "1") {
            ++d.outcome.accepted;
          } else {
            ++d.outcome.rejected;
          }
        } else if (batch_edges > 0) {
          ++d.outcome.inserts;
          d.outcome.edges_inserted += batch_edges;
        } else {
          ++d.outcome.checkpoints;
        }
      }
    }

    // Closing checkpoint: the final graph hash is the mutation-path
    // equality the 1-vs-8 test asserts.
    for (const std::size_t i : owned) {
      TenantDriver& d = drivers[i];
      if (d.done) continue;
      const std::string reply =
          call_retrying(*client, "checkpoint tenant=" + d.outcome.name, d.outcome);
      fold_reply(d.outcome, reply);
      if (is_error(reply)) {
        ++d.outcome.errors;
      } else {
        d.outcome.final_hash = std::string(reply_field(reply, "hash"));
      }
    }
  };

  // A client error must surface as a typed exception, never
  // std::terminate: every thread parks its exception, all threads join, and
  // the lowest thread index's error is rethrown.
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        drive(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  LoadgenReport report;
  report.tenants.reserve(spec.tenants);
  for (TenantDriver& d : drivers) {
    report.total_queries += d.outcome.queries;
    report.total_accepted += d.outcome.accepted;
    report.total_rejected += d.outcome.rejected;
    report.total_sheds += d.outcome.sheds;
    report.total_errors += d.outcome.errors;
    report.aggregate_digest = util::hash_combine(report.aggregate_digest, d.outcome.reply_digest);
    report.aggregate_digest =
        util::hash_combine(report.aggregate_digest, d.outcome.verdict_multiset);
    report.aggregate_digest = util::hash_combine(report.aggregate_digest, fnv1a(d.outcome.final_hash));
    report.tenants.push_back(std::move(d.outcome));
  }
  return report;
}

std::string LoadgenReport::jsonl() const {
  std::string out;
  for (const TenantOutcome& t : tenants) {
    lab::JsonWriter json;
    json.begin_object();
    json.field("record", "loadgen_tenant");
    json.field("tenant", t.name);
    json.field("family", t.family);
    json.field("reply_digest", t.reply_digest);
    json.field("verdict_multiset", t.verdict_multiset);
    json.field("final_hash", t.final_hash);
    json.field("queries", t.queries);
    json.field("accepted", t.accepted);
    json.field("rejected", t.rejected);
    json.field("inserts", t.inserts);
    json.field("edges_inserted", t.edges_inserted);
    json.field("checkpoints", t.checkpoints);
    json.field("sheds", t.sheds);
    json.field("errors", t.errors);
    json.end_object();
    out += std::move(json).str();
    out.push_back('\n');
  }
  lab::JsonWriter json;
  json.begin_object();
  json.field("record", "loadgen_aggregate");
  json.field("tenants", static_cast<std::uint64_t>(tenants.size()));
  json.field("total_queries", total_queries);
  json.field("total_accepted", total_accepted);
  json.field("total_rejected", total_rejected);
  json.field("total_sheds", total_sheds);
  json.field("total_errors", total_errors);
  json.field("aggregate_digest", aggregate_digest);
  json.end_object();
  out += std::move(json).str();
  out.push_back('\n');
  return out;
}

}  // namespace decycle::serve
