#include "engine/session_pool.hpp"

#include <utility>

#include "util/hash.hpp"

namespace decycle::engine {

std::size_t SessionPool::KeyHash::operator()(const SessionKey& k) const noexcept {
  std::uint64_t h = util::splitmix64(k.graph_hash);
  h = util::hash_combine(h, k.epoch);
  h = util::hash_combine(h, static_cast<std::uint64_t>(k.model));
  return static_cast<std::size_t>(h);
}

void SessionPool::Lease::release() {
  if (session_ == nullptr) return;
  SessionPool* pool = std::exchange(pool_, nullptr);
  if (pool != nullptr) pool->release_session(std::move(session_));
  session_.reset();
}

SessionPool::Lease SessionPool::lease(const PinnedGraphPtr& graph,
                                      const congest::CommModel& model) {
  const SessionKey key{graph->hash, graph->epoch.load(std::memory_order_acquire),
                       model.kind()};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<Session> session = std::move(it->second.back());
      it->second.pop_back();
      --idle_total_;
      // 64-bit content hashes make collisions implausible, but a collision
      // would silently run the wrong topology — guard on the cheap
      // structural facts before trusting the cache.
      if (session->graph->graph.num_vertices() == graph->graph.num_vertices() &&
          session->graph->graph.num_edges() == graph->graph.num_edges()) {
        ++stats_.hits;
        return Lease(this, std::move(session), /*cached=*/true);
      }
      // Collision: fall through to a cold build; the popped session dies.
      ++stats_.evictions;
    }
    ++stats_.misses;
  }
  // The O(m) Simulator build runs outside the lock so concurrent lanes
  // building sessions for different graphs do not serialize.
  auto session = std::make_unique<Session>(key, graph, model);
  return Lease(this, std::move(session), /*cached=*/false);
}

void SessionPool::release_session(std::unique_ptr<Session> session) {
  std::unique_ptr<Session> evicted;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) {
      ++stats_.evictions;
    } else {
      session->last_used = ++tick_;
      idle_[session->key].push_back(std::move(session));
      ++idle_total_;
      if (idle_total_ > capacity_) {
        evicted = pop_lru_locked();
        ++stats_.evictions;
      }
    }
  }
  // `session` (capacity 0) or `evicted` is destroyed here, outside the lock.
}

std::unique_ptr<SessionPool::Session> SessionPool::pop_lru_locked() {
  auto* oldest_list = static_cast<std::vector<std::unique_ptr<Session>>*>(nullptr);
  std::size_t oldest_index = 0;
  std::uint64_t oldest_tick = ~std::uint64_t{0};
  for (auto& [key, sessions] : idle_) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i]->last_used < oldest_tick) {
        oldest_tick = sessions[i]->last_used;
        oldest_list = &sessions;
        oldest_index = i;
      }
    }
  }
  if (oldest_list == nullptr) return nullptr;
  std::unique_ptr<Session> evicted = std::move((*oldest_list)[oldest_index]);
  oldest_list->erase(oldest_list->begin() + static_cast<std::ptrdiff_t>(oldest_index));
  --idle_total_;
  return evicted;
}

void SessionPool::purge(std::uint64_t graph_hash) {
  std::vector<std::unique_ptr<Session>> purged;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.purges;
    for (auto it = idle_.begin(); it != idle_.end();) {
      if (it->first.graph_hash == graph_hash) {
        for (auto& session : it->second) {
          purged.push_back(std::move(session));
          --idle_total_;
          ++stats_.purged_sessions;
        }
        it = idle_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Sessions destroyed outside the lock.
}

SessionStats SessionPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SessionPool::idle_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return idle_total_;
}

}  // namespace decycle::engine
