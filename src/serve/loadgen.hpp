/// \file loadgen.hpp
/// \brief Seeded closed-loop load generator for the serving daemon.
///
/// The loadgen is the serving layer's determinism witness, so its shape is
/// dictated by the Server's contract: every tenant is driven closed-loop by
/// exactly one logical client (the next request is not formed until the
/// previous reply for that tenant arrived), which makes each tenant's
/// non-shed reply sequence a pure function of (spec seed, tenant index) —
/// independent of client thread count, server worker count, and
/// verdict-cache state. Client threads merely partition tenants; adding
/// threads adds concurrency *across* tenants, never reordering *within*
/// one.
///
/// Workload. Tenant i is created over lab graph family
/// `known_families()[i mod |families|]` and then driven through a seeded
/// mix of queries (random registry algo × k × ε), incremental edge inserts
/// (duplicate-free by construction against a client-side mirror), and
/// checkpoints. REJECTED overload replies are counted and retried — they
/// carry live queue depths and so are excluded from the determinism
/// digests; everything else folds into per-tenant digests and typed
/// verdict counts, then into thread-count-independent aggregates in tenant
/// order. tests/serve/determinism_test.cpp pins 1-vs-8 equality of exactly
/// these digests plus the final checkpoint hashes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace decycle::serve {

class Server;

/// Transport abstraction: one synchronous request/reply round trip. The
/// loadgen drives any Client the same way, so the in-process tests and the
/// socket tool share its workload byte-for-byte.
class Client {
 public:
  virtual ~Client() = default;
  /// Sends one payload and blocks for the reply payload.
  [[nodiscard]] virtual std::string call(const std::string& payload) = 0;
};

/// Client over a Server in the same process (the test and soak path).
class InProcessClient final : public Client {
 public:
  explicit InProcessClient(Server& server) : server_(server) {}
  [[nodiscard]] std::string call(const std::string& payload) override;

 private:
  Server& server_;
};

struct LoadgenSpec {
  std::size_t tenants = 4;
  /// Client threads. Tenants are partitioned round-robin across threads;
  /// per-tenant traffic stays closed-loop at any value.
  std::size_t client_threads = 1;
  graph::Vertex n = 64;            ///< family size parameter per tenant
  std::size_t ops_per_tenant = 64; ///< requests after create (excl. final checkpoint)
  /// Op mix, checked in order: u < mutate_ratio -> insert,
  /// u < mutate_ratio + checkpoint_ratio -> checkpoint, else query.
  double mutate_ratio = 0.25;
  double checkpoint_ratio = 0.05;
  std::uint64_t seed = 1;
  /// Query axes (uniform draws). Defaults are congest-capable, any-k algos.
  std::vector<std::string> algos = {"tester", "threshold"};
  std::vector<unsigned> ks = {3, 5};
  std::vector<double> epsilons = {0.25, 0.5};
  std::size_t repetitions = 1;
};

/// Per-tenant outcome — every field a pure function of (spec, tenant index)
/// when nothing but overload varies between runs.
struct TenantOutcome {
  std::string name;
  std::string family;
  /// Order-sensitive FNV-style fold over the non-shed reply bodies.
  std::uint64_t reply_digest = 0;
  /// Commutative (sum of per-reply hashes) fold over query replies only —
  /// the per-tenant verdict *multiset* the 1-vs-8 test compares.
  std::uint64_t verdict_multiset = 0;
  std::string final_hash;  ///< hex graph hash from the closing checkpoint
  std::uint64_t queries = 0;
  std::uint64_t accepted = 0;   ///< query replies with accepted=1
  std::uint64_t rejected = 0;   ///< query replies with accepted=0
  std::uint64_t inserts = 0;    ///< insert requests applied
  std::uint64_t edges_inserted = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t sheds = 0;      ///< REJECTED overload replies (retried)
  std::uint64_t errors = 0;     ///< ERROR replies (workload bug if nonzero)
};

struct LoadgenReport {
  std::vector<TenantOutcome> tenants;  ///< tenant order (index 0..T-1)
  std::uint64_t total_queries = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_rejected = 0;
  std::uint64_t total_sheds = 0;
  std::uint64_t total_errors = 0;
  /// Fold of per-tenant (reply_digest, verdict_multiset, final_hash) in
  /// tenant order — one number whose equality across worker counts is the
  /// whole determinism story.
  std::uint64_t aggregate_digest = 0;

  /// One JSONL record per tenant plus an aggregate record.
  [[nodiscard]] std::string jsonl() const;
};

/// One Client per client thread (a socket client is per-connection state;
/// an in-process client is trivially copyable but goes through the same
/// hook).
using ClientFactory = std::function<std::unique_ptr<Client>()>;

/// Creates the tenants, drives the mixed workload closed-loop, issues a
/// final checkpoint per tenant, and folds the report. Throws CheckError
/// when the spec is unusable (no tenants, unknown algo name, empty axes).
/// A client that throws (e.g. a failed socket connect) ends the run: all
/// client threads join, then the lowest-indexed thread's exception is
/// rethrown.
[[nodiscard]] LoadgenReport run_loadgen(const LoadgenSpec& spec, const ClientFactory& factory);

}  // namespace decycle::serve
