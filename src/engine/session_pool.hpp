/// \file session_pool.hpp
/// \brief Cached Simulator sessions behind lane-confined leases.
///
/// Building a congest::Simulator costs an O(m) CSR reverse-port sweep plus
/// first-run arena growth; resetting one is nearly free (DESIGN.md §4, §6).
/// The lab's per-worker-lane reuse and the soak's batched slots each used to
/// hand-roll that amortization. The SessionPool is the shared generalization:
/// a capacity-bounded LRU cache of sessions keyed on
///
///   (graph structural hash, graph epoch, communication model)
///
/// handed out as RAII leases. While leased, a session is owned by exactly
/// one lane — the pool forgets it entirely, so concurrent lanes can never
/// share a Simulator and eviction can never free a session mid-run
/// (lease-while-evicted safety: eviction only ever touches idle sessions).
/// Dropping the lease returns the session to the idle cache and evicts the
/// least-recently-used idle session past capacity. Every session co-owns
/// its PinnedGraph, so cache hits stay valid after the lessee's own graph
/// goes out of scope, and the Simulator's pooled NodeProgram allocator
/// (PR 6) rides along: reset-heavy trial sweeps on a leased session are
/// heap-silent after warmup.
///
/// Thread safety: lease()/release and the counters are mutex-guarded; the
/// expensive Simulator build runs outside the lock. The leased Simulator
/// itself is lane-confined by construction and must not be shared.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "congest/comm_model.hpp"
#include "congest/simulator.hpp"
#include "engine/graph_store.hpp"

namespace decycle::engine {

/// Cache identity of a session. Folding the epoch means a pin's mutation
/// bump retires old sessions without touching the pool.
struct SessionKey {
  std::uint64_t graph_hash = 0;
  std::uint64_t epoch = 0;
  congest::CommModelKind model = congest::CommModelKind::kCongest;

  [[nodiscard]] bool operator==(const SessionKey&) const noexcept = default;
};

/// Cumulative cache counters (monotonic; read via SessionPool::stats and
/// surfaced by `decycle_lab --engine-stats`).
struct SessionStats {
  std::uint64_t hits = 0;       ///< lease served from the idle cache
  std::uint64_t misses = 0;     ///< lease had to build a Simulator
  std::uint64_t evictions = 0;  ///< idle sessions destroyed past capacity
  std::uint64_t purges = 0;     ///< purge() calls (mutation-driven retirements)
  std::uint64_t purged_sessions = 0;  ///< idle sessions destroyed by purge()
};

class SessionPool {
 public:
  /// One cached session: the Simulator plus the graph it co-owns.
  struct Session {
    SessionKey key;
    PinnedGraphPtr graph;
    congest::Simulator sim;
    std::uint64_t last_used = 0;  ///< LRU stamp (pool tick at release)

    Session(SessionKey k, PinnedGraphPtr g, const congest::CommModel& model)
        : key(k), graph(std::move(g)), sim(graph->graph, graph->ids, model) {}
  };

  /// RAII session lease. Move-only; returns the session to the pool on
  /// destruction. A default-constructed / moved-from lease is empty.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = std::exchange(other.pool_, nullptr);
        session_ = std::move(other.session_);
        cached_ = other.cached_;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] congest::Simulator& sim() { return session_->sim; }
    [[nodiscard]] const SessionKey& key() const { return session_->key; }
    /// True when this lease was served from the cache (the session had run
    /// before and the detector's reset-reuse contract applies).
    [[nodiscard]] bool cached() const noexcept { return cached_; }
    [[nodiscard]] explicit operator bool() const noexcept { return session_ != nullptr; }

    /// Returns the session to the pool now (idempotent).
    void release();

   private:
    friend class SessionPool;
    Lease(SessionPool* pool, std::unique_ptr<Session> session, bool cached)
        : pool_(pool), session_(std::move(session)), cached_(cached) {}

    SessionPool* pool_ = nullptr;
    std::unique_ptr<Session> session_;
    bool cached_ = false;
  };

  static constexpr std::size_t kDefaultCapacity = 64;

  /// \p capacity bounds the number of *idle* sessions kept for reuse;
  /// leased sessions are unbounded (they are the working set). Capacity 0
  /// caches nothing — every lease is a cold build, every release a destroy.
  explicit SessionPool(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Leases a session for \p graph under \p model: a cached idle session for
  /// the key when one exists (hit), otherwise a freshly built one (miss).
  /// Every detector leaves a session reusable by any other (the reset-reuse
  /// contract of core/detector.hpp), so the key names no detector. Safe to
  /// call concurrently from lanes. The lease must not outlive the pool.
  [[nodiscard]] Lease lease(const PinnedGraphPtr& graph, const congest::CommModel& model);

  /// Drops every idle session of \p graph_hash (any epoch, model).
  /// Counted as purges/purged_sessions (distinct from capacity evictions, so
  /// mutation-driven retirement is visible in stats on its own — see
  /// `decycle_lab --engine-stats`). Leased sessions are unaffected — they die on
  /// release instead of rejoining the cache only if past capacity, exactly
  /// like any other release.
  void purge(std::uint64_t graph_hash);

  [[nodiscard]] SessionStats stats() const;
  [[nodiscard]] std::size_t idle_count() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const SessionKey& k) const noexcept;
  };

  void release_session(std::unique_ptr<Session> session);
  /// Destroys the least-recently-used idle session. Caller holds the lock;
  /// the session is destroyed after the lock is dropped by the caller side
  /// (destruction under the lock is fine too — Simulator teardown does not
  /// reenter the pool — but we keep the critical section small).
  std::unique_ptr<Session> pop_lru_locked();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<SessionKey, std::vector<std::unique_ptr<Session>>, KeyHash> idle_;
  std::size_t idle_total_ = 0;
  std::uint64_t tick_ = 0;
  SessionStats stats_;
};

}  // namespace decycle::engine
