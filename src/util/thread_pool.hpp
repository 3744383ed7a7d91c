/// \file thread_pool.hpp
/// \brief Fixed-size worker pool with one zero-allocation batch primitive,
/// run_lanes, and a blocking parallel_for on top of it.
///
/// The pool parallelizes across independent queries, never inside one: a
/// simulation runs on the thread that calls Simulator::run. Two uses:
///   * engine::for_lanes (lab cells, soak campaigns, engine batches) hands
///     each contiguous lane to run_lanes;
///   * harness::estimate_rate fans independent trials out via parallel_for
///     (each trial owns its RNG stream, so results are identical for any
///     thread count).
///
/// The batch machinery is deliberately simple: one mutex-guarded in-flight
/// batch that workers join by snapshotting its descriptor, and an atomic
/// cursor they claim indices from. Batches block the caller and must not be
/// submitted from inside pool work (no nesting).
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace decycle::util {

/// Non-owning reference to a callable taking a std::size_t index. Trivially
/// copyable, never allocates; the referent must outlive every call.
class IndexFnRef {
 public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, IndexFnRef>)
  IndexFnRef(F& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, std::size_t i) { (*static_cast<F*>(o))(i); }) {}

  IndexFnRef() noexcept = default;

  void operator()(std::size_t i) const { call_(obj_, i); }
  [[nodiscard]] bool valid() const noexcept { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, std::size_t) = nullptr;
};

class ThreadPool {
 public:
  /// Creates \p num_threads workers; 0 means std::thread::hardware_concurrency().
  /// If a worker cannot be started (std::system_error when the process is
  /// out of threads or address space), the workers already started are
  /// stopped and joined and the exception propagates.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, count), blocking until all iterations finish.
  /// Iterations are chunked into ~4 run_lanes indices per worker to
  /// amortize dispatch. Exceptions thrown by fn propagate to the caller
  /// (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// The batch primitive: runs fn(l) exactly once for every lane l in
  /// [0, lanes), blocking until all finished. Lanes are claimed from an
  /// atomic cursor by the calling thread plus any workers that wake in
  /// time, so one thread may execute several lanes; callers that need
  /// results independent of the worker count write them to per-lane slots.
  /// Exceptions are captured and the first one rethrows after the batch
  /// drains (the remaining lanes still run). Steady-state batches perform
  /// no heap allocation. Concurrent calls from different threads
  /// serialize. Not reentrant: must not be called from inside a pool task.
  void run_lanes(std::size_t lanes, IndexFnRef fn);

 private:
  void worker_loop();
  /// Sets stopping_, wakes every worker and joins them.
  void stop_workers();
  /// Claims and runs batch indices until the cursor is exhausted.
  void drain_batch(IndexFnRef fn, std::size_t count);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // --- indexed batch state (one batch in flight; guarded by mutex_ for
  // writes, read by workers after they observe the epoch change;
  // submit_mutex_ serializes whole batches across calling threads) ---
  std::mutex submit_mutex_;
  IndexFnRef batch_fn_;
  std::size_t batch_count_ = 0;
  std::uint64_t batch_epoch_ = 0;      ///< bumped per batch, under mutex_
  std::atomic<std::size_t> batch_next_{0};
  std::atomic<std::size_t> batch_done_{0};
  std::size_t batch_workers_inside_ = 0;  ///< workers currently draining
  std::condition_variable batch_cv_;      ///< completion / drain signaling
  std::exception_ptr batch_error_;
};

/// Process-wide pool for the harness (constructed on first use).
[[nodiscard]] ThreadPool& global_pool();

}  // namespace decycle::util
