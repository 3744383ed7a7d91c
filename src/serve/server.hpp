/// \file server.hpp
/// \brief The multi-tenant detection daemon (DESIGN.md §14).
///
/// A Server owns one DetectionEngine and a tenant map, its only namespace:
/// a tenant is a named IncrementalSession, mutable through the incremental
/// insert path (every mutating batch bumps the session's pinned snapshot's
/// epoch and purges its cached sessions). Requests arrive as protocol
/// payloads, pass admission control (bounded queue + per-tenant in-flight
/// caps; anything over the line gets an immediate `REJECTED overload`
/// reply — the server never blocks a client on a full queue and never
/// drops a request silently), and are served by a fixed worker pool. Each
/// worker pops one op at a time in FIFO order; a query resolves its
/// tenant's snapshot, probes the verdict cache, and on a miss runs through
/// DetectionEngine::run_one.
///
/// The verdict cache is the serving-layer speedup: a detector run is a pure
/// function of (graph content hash, epoch, model, algo, resolved options) —
/// the registry's determinism contract — so its reply body can be memoized
/// under exactly that key. Mutations invalidate by construction (the epoch
/// is in the key), and a cache hit returns byte-identical bytes to the run
/// it memoized, so caching is invisible to the determinism contract below.
///
/// Determinism contract (the serving analogue of the lab's byte-identity):
/// a tenant driven closed-loop (each client awaits the reply before sending
/// the next request for that tenant) observes a reply sequence that is a
/// pure function of its request sequence — independent of worker count,
/// cache state, and co-tenant traffic — provided no request was shed. tests/serve/determinism_test.cpp pins this at 1 vs 8 workers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/engine.hpp"
#include "incremental/session.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"

namespace decycle::serve {

struct ServerOptions {
  std::size_t workers = 4;
  std::size_t queue_capacity = 1024;
  /// Per-tenant in-flight cap (queued + executing). A single hot tenant can
  /// fill at most this much of the shared queue before its overflow is shed,
  /// so one tenant's burst cannot starve the rest.
  std::size_t tenant_inflight_cap = 64;
  /// Memoized (graph hash, epoch, model, algo, options) -> reply entries.
  /// 0 disables the verdict cache (every query runs the detector).
  std::size_t verdict_cache_capacity = 1 << 16;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the worker pool. Idempotent. Ops admitted before it wait in the
  /// queue, where they count against queue_capacity.
  void start();

  /// Stops admission, drains every already-admitted op, joins the workers.
  /// Replies still in the queue are served (a closed-loop client never sees
  /// a dropped request); new submissions get ERROR shutting_down.
  void stop();

  /// Asynchronous submission: parses \p payload, applies admission control,
  /// and guarantees \p on_reply is invoked exactly once — inline for parse
  /// errors / sheds / control verbs, from a worker thread for admitted ops.
  void submit(std::string payload, std::function<void(std::string)> on_reply);

  /// Synchronous convenience — the closed-loop client path. Thread-safe.
  [[nodiscard]] std::string call(const std::string& payload);

  /// The stats dump a `stats` request returns: per-tenant + global latency
  /// JSONL plus engine session counters and verdict-cache counters.
  [[nodiscard]] std::string stats_jsonl() const;

  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }
  [[nodiscard]] engine::DetectionEngine& engine() noexcept { return engine_; }
  [[nodiscard]] ServeStats& stats() noexcept { return stats_; }
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Ops admitted and not yet taken by a worker.
  [[nodiscard]] std::size_t queue_depth() const;

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t resets = 0;  ///< generational clears at capacity
  };
  [[nodiscard]] CacheStats verdict_cache_stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Tenant {
    Tenant(engine::DetectionEngine& engine, std::string name, graph::Vertex n)
        : session(engine, std::move(name), n) {}
    std::mutex mutex;  ///< serializes session mutation/checkpoint
    incremental::IncrementalSession session;
    /// Canonical packed (u<v) edges already applied — the duplicate guard
    /// the incremental detectors' duplicate-free input contract needs.
    std::unordered_set<std::uint64_t> edge_keys;
    std::atomic<std::size_t> in_flight{0};
  };

  struct Op {
    Request request;
    std::function<void(std::string)> reply;
    std::shared_ptr<Tenant> tenant;
    Clock::time_point enqueued;
    std::size_t depth_at_admit = 0;
  };

  void worker_loop();
  void process(Op op);
  void finish(Op& op, std::string reply_body);

  [[nodiscard]] std::shared_ptr<Tenant> find_tenant(const std::string& name) const;
  [[nodiscard]] std::string handle_create(const Request& r);
  [[nodiscard]] std::string handle_checkpoint(Tenant& tenant);
  [[nodiscard]] std::string handle_insert(Tenant& tenant, const Request& r);
  [[nodiscard]] std::string handle_query(Tenant& tenant, const Request& r);

  [[nodiscard]] static std::string cache_key(const engine::PinnedGraphPtr& pin,
                                             std::uint64_t epoch, const Request& r);

  ServerOptions options_;
  engine::DetectionEngine engine_;
  ServeStats stats_;

  mutable std::mutex tenants_mutex_;
  std::map<std::string, std::shared_ptr<Tenant>, std::less<>> tenants_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Op> queue_;
  bool stopping_ = false;

  std::atomic<bool> shutdown_{false};

  mutable std::mutex cache_mutex_;
  std::unordered_map<std::string, std::string> verdict_cache_;
  CacheStats cache_stats_;

  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace decycle::serve
