#include "serve/server.hpp"

#include <bit>
#include <charconv>
#include <future>
#include <utility>

#include "lab/scenario.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace decycle::serve {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  DECYCLE_CHECK(ec == std::errc{});
  return std::string(buf, ptr);
}

/// Canonical (u < v) packed edge for the tenant's duplicate guard.
std::uint64_t edge_key(graph::Vertex u, graph::Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      engine_(engine::EngineOptions{.pool = nullptr,
                                    .session_capacity = options_.session_capacity}) {
  DECYCLE_CHECK_MSG(options_.workers > 0, "serve: need at least one worker");
  DECYCLE_CHECK_MSG(options_.queue_capacity > 0, "serve: queue capacity must be positive");
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  started_ = true;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  {
    std::lock_guard lock(queue_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  stall_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

std::size_t Server::queue_depth() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

void Server::release_stall(std::uint64_t id) {
  {
    std::lock_guard lock(stall_mutex_);
    released_stalls_.insert(id);
  }
  stall_cv_.notify_all();
}

Server::CacheStats Server::verdict_cache_stats() const {
  std::lock_guard lock(cache_mutex_);
  return cache_stats_;
}

std::shared_ptr<Server::Tenant> Server::find_tenant(const std::string& name) const {
  std::lock_guard lock(tenants_mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

void Server::submit(std::string payload, std::function<void(std::string)> on_reply) {
  Request request;
  try {
    request = parse_request(payload, options_.limits);
  } catch (const ProtocolError& e) {
    on_reply(format_error(e.code(), e.what()));
    return;
  } catch (const util::CheckError& e) {
    on_reply(format_error(ErrorCode::kBadRequest, e.what()));
    return;
  }

  // Control verbs are served inline: they must answer even when the queue
  // is saturated (that is the whole point of a stats endpoint).
  switch (request.verb) {
    case Verb::kStats:
      on_reply("OK stats\n" + stats_jsonl());
      return;
    case Verb::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      on_reply("OK shutdown");
      return;
    case Verb::kCreate:
      try {
        on_reply(handle_create(request));
      } catch (const ProtocolError& e) {
        on_reply(format_error(e.code(), e.what()));
      } catch (const util::CheckError& e) {
        on_reply(format_error(ErrorCode::kBadRequest, e.what()));
      }
      return;
    case Verb::kStall:
      if (!options_.enable_stall) {
        on_reply(format_error(ErrorCode::kBadRequest,
                              "stall is a test-only verb (ServerOptions::enable_stall)"));
        return;
      }
      break;
    default:
      break;
  }

  Op op;
  op.request = std::move(request);
  op.reply = std::move(on_reply);
  if (op.request.verb != Verb::kStall) {
    op.tenant = find_tenant(op.request.tenant);
    if (op.tenant == nullptr) {
      std::string known;
      {
        std::lock_guard lock(tenants_mutex_);
        for (const auto& [name, tenant] : tenants_) {
          if (!known.empty()) known += ", ";
          known += name;
        }
      }
      op.reply(format_error(ErrorCode::kUnknownTenant,
                            "unknown tenant '" + op.request.tenant + "'; stored: " +
                                (known.empty() ? "(none — create one first)" : known)));
      return;
    }
  }

  // Admission control under the queue lock: bounded queue, per-tenant
  // in-flight cap. Anything over the line is shed *now* with an explicit
  // REJECTED — the client is never blocked and never left hanging.
  {
    std::unique_lock lock(queue_mutex_);
    if (stopping_ || shutdown_.load(std::memory_order_acquire)) {
      lock.unlock();
      op.reply(format_error(ErrorCode::kShuttingDown, "server is draining; no new work"));
      return;
    }
    const std::size_t depth = queue_.size();
    if (depth >= options_.queue_capacity) {
      lock.unlock();
      stats_.record_shed(op.request.tenant, depth);
      op.reply(format_rejected("queue_full", depth));
      return;
    }
    if (op.tenant != nullptr &&
        op.tenant->in_flight.load(std::memory_order_relaxed) >= options_.tenant_inflight_cap) {
      lock.unlock();
      stats_.record_shed(op.request.tenant, depth);
      op.reply(format_rejected("tenant_inflight_cap", depth));
      return;
    }
    if (op.tenant != nullptr) op.tenant->in_flight.fetch_add(1, std::memory_order_relaxed);
    op.enqueued = Clock::now();
    op.depth_at_admit = depth;
    queue_.push_back(std::move(op));
  }
  queue_cv_.notify_one();
}

std::string Server::call(const std::string& payload) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  submit(payload, [&promise](std::string reply) { promise.set_value(std::move(reply)); });
  return future.get();
}

void Server::worker_loop() {
  for (;;) {
    Op op;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    process(std::move(op));
  }
}

void Server::finish(Op& op, std::string reply_body) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - op.enqueued).count();
  stats_.record(op.request.tenant, latency_ms, op.depth_at_admit);
  if (op.tenant != nullptr) op.tenant->in_flight.fetch_sub(1, std::memory_order_relaxed);
  op.reply(std::move(reply_body));
}

void Server::process(Op op) {
  try {
    switch (op.request.verb) {
      case Verb::kInsert: {
        std::lock_guard lock(op.tenant->mutex);
        finish(op, handle_insert(*op.tenant, op.request));
        return;
      }
      case Verb::kCheckpoint: {
        std::lock_guard lock(op.tenant->mutex);
        finish(op, handle_checkpoint(*op.tenant));
        return;
      }
      case Verb::kQuery:
        finish(op, handle_query(*op.tenant, op.request));
        return;
      case Verb::kStall: {
        stalled_.fetch_add(1, std::memory_order_release);
        {
          std::unique_lock lock(stall_mutex_);
          stall_cv_.wait(lock, [this, &op] {
            if (released_stalls_.contains(op.request.stall_id)) return true;
            std::lock_guard qlock(queue_mutex_);
            return stopping_;
          });
        }
        stalled_.fetch_sub(1, std::memory_order_release);
        finish(op, "OK stall");
        return;
      }
      default:
        finish(op, format_error(ErrorCode::kInternal, "unroutable verb in worker"));
        return;
    }
  } catch (const ProtocolError& e) {
    finish(op, format_error(e.code(), e.what()));
  } catch (const std::exception& e) {
    finish(op, format_error(ErrorCode::kInternal, e.what()));
  }
}

std::string Server::cache_key(const engine::PinnedGraphPtr& pin, std::uint64_t epoch,
                              const Request& r) {
  std::string key = hex64(pin->hash);
  key.push_back('/');
  key += std::to_string(epoch);
  key.push_back('/');
  key += r.model->name();
  key.push_back('/');
  key += r.algo->name();
  key.push_back('/');
  key += std::to_string(r.k);
  key.push_back('/');
  key += hex64(std::bit_cast<std::uint64_t>(r.epsilon));
  key.push_back('/');
  key += std::to_string(r.seed);
  key.push_back('/');
  key += std::to_string(r.repetitions);
  return key;
}

std::string Server::handle_query(Tenant& tenant, const Request& r) {
  // The snapshot is resolved under the tenant lock; pins are immutable, so
  // the detector run below holds no tenant lock.
  engine::PinnedGraphPtr pin;
  std::uint64_t epoch = 0;
  {
    std::lock_guard lock(tenant.mutex);
    pin = tenant.session.checkpoint();
    epoch = pin->epoch.load(std::memory_order_acquire);
  }
  const bool use_cache = options_.verdict_cache_capacity > 0;
  std::string key;
  if (use_cache) {
    key = cache_key(pin, epoch, r);
    std::lock_guard lock(cache_mutex_);
    if (const auto it = verdict_cache_.find(key); it != verdict_cache_.end()) {
      ++cache_stats_.hits;
      return it->second;
    }
    ++cache_stats_.misses;
  }
  core::DetectorOptions detector_options;
  detector_options.k = r.k;
  detector_options.epsilon = r.epsilon;
  detector_options.seed = r.seed;
  detector_options.repetitions = r.repetitions;
  const core::Verdict verdict = engine_.run_one(
      pin, engine::Query{.detector = r.algo, .options = detector_options, .model = r.model});
  std::string reply = "OK query " + format_verdict(verdict);
  if (use_cache) {
    std::lock_guard lock(cache_mutex_);
    if (verdict_cache_.size() >= options_.verdict_cache_capacity) {
      // Generational reset: O(1) amortized, no LRU bookkeeping on the
      // 50k-QPS hit path. A reset only costs re-runs, never wrong answers.
      verdict_cache_.clear();
      ++cache_stats_.resets;
    }
    verdict_cache_.emplace(std::move(key), reply);
  }
  return reply;
}

std::string Server::handle_create(const Request& r) {
  graph::Graph topology;
  if (!r.family.empty()) {
    if (std::string err = lab::validate_family(r.family, r.k, r.n); !err.empty()) {
      throw ProtocolError(ErrorCode::kBadRequest, err);
    }
    lab::ScenarioCell cell;
    cell.family = r.family;
    cell.k = r.k;
    cell.n = r.n;
    util::Rng rng(util::hash_combine(r.family_seed, 0x5e54e5e4ULL));
    topology = lab::build_topology(cell, rng).graph;
  } else {
    topology = graph::Graph::from_edges(r.n, std::span<const graph::Edge>{});
  }

  auto tenant = std::make_shared<Tenant>(engine_, r.tenant, topology.num_vertices());
  {
    std::lock_guard lock(tenants_mutex_);
    const auto [it, inserted] = tenants_.emplace(r.tenant, tenant);
    if (!inserted) {
      throw ProtocolError(ErrorCode::kTenantExists,
                          "tenant '" + r.tenant + "' already exists; tenant names are "
                          "single-assignment (pick a fresh name)");
    }
  }
  engine::PinnedGraphPtr pin;
  {
    std::lock_guard lock(tenant->mutex);
    if (topology.num_edges() > 0) {
      std::vector<incremental::Insert> inserts;
      inserts.reserve(topology.num_edges());
      for (const auto& [u, v] : topology.edges()) {
        inserts.emplace_back(u, v);
        tenant->edge_keys.insert(edge_key(u, v));
      }
      (void)tenant->session.apply(inserts);
    }
    pin = tenant->session.checkpoint();
  }
  return "OK create tenant=" + r.tenant + " n=" + std::to_string(pin->graph.num_vertices()) +
         " m=" + std::to_string(pin->graph.num_edges()) + " hash=" + hex64(pin->hash);
}

std::string Server::handle_insert(Tenant& tenant, const Request& r) {
  const graph::Vertex n = tenant.session.num_vertices();
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    const auto [u, v] = r.edges[i];
    if (u >= n || v >= n) {
      throw ProtocolError(ErrorCode::kBadInsert,
                          "edge " + std::to_string(u) + "-" + std::to_string(v) + " at index " +
                              std::to_string(i) + " has an endpoint >= n=" + std::to_string(n));
    }
  }
  // Enforce the incremental detectors' duplicate-free contract loudly
  // (stream.hpp): a duplicate would silently turn the tenant into a
  // multigraph the snapshot then dedups away — verdicts would diverge.
  for (std::size_t i = 0; i < r.edges.size(); ++i) {
    const auto [u, v] = r.edges[i];
    const std::uint64_t key = edge_key(u, v);
    if (!tenant.edge_keys.insert(key).second) {
      // Roll back keys inserted by this batch so the tenant state matches
      // "nothing applied".
      for (std::size_t j = 0; j < i; ++j) {
        tenant.edge_keys.erase(edge_key(r.edges[j].first, r.edges[j].second));
      }
      throw ProtocolError(ErrorCode::kBadInsert,
                          "edge " + std::to_string(u) + "-" + std::to_string(v) + " at index " +
                              std::to_string(i) +
                              " is already present (insert streams are duplicate-free)");
    }
  }
  const incremental::BatchVerdicts verdicts = tenant.session.apply(r.edges);
  std::string out = "OK insert applied=" + std::to_string(r.edges.size()) +
                    " closures=" + std::to_string(verdicts.closures) + " first_closure=";
  std::size_t first = verdicts.closed.size();
  for (std::size_t i = 0; i < verdicts.closed.size(); ++i) {
    if (verdicts.closed[i] != 0) {
      first = i;
      break;
    }
  }
  out += first == verdicts.closed.size() ? std::string("-") : std::to_string(first);
  return out;
}

std::string Server::handle_checkpoint(Tenant& tenant) {
  const engine::PinnedGraphPtr pin = tenant.session.checkpoint();
  return "OK checkpoint hash=" + hex64(pin->hash) +
         " epoch=" + std::to_string(pin->epoch.load(std::memory_order_acquire)) +
         " n=" + std::to_string(pin->graph.num_vertices()) +
         " m=" + std::to_string(pin->graph.num_edges()) +
         " inserts=" + std::to_string(tenant.session.inserts()) +
         " stream_closures=" + std::to_string(tenant.session.closures());
}

std::string Server::stats_jsonl() const {
  const engine::SessionStats sessions = engine_.session_stats();
  const CacheStats cache = verdict_cache_stats();
  std::size_t tenant_count = 0;
  {
    std::lock_guard lock(tenants_mutex_);
    tenant_count = tenants_.size();
  }
  std::string extra = "\"tenants\":" + std::to_string(tenant_count) +
                      ",\"session_hits\":" + std::to_string(sessions.hits) +
                      ",\"session_misses\":" + std::to_string(sessions.misses) +
                      ",\"session_evictions\":" + std::to_string(sessions.evictions) +
                      ",\"session_purges\":" + std::to_string(sessions.purges) +
                      ",\"verdict_hits\":" + std::to_string(cache.hits) +
                      ",\"verdict_misses\":" + std::to_string(cache.misses) +
                      ",\"verdict_resets\":" + std::to_string(cache.resets);
  return stats_.jsonl(extra);
}

}  // namespace decycle::serve
