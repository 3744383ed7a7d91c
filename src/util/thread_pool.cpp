#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace decycle::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // No destructor runs for a half-built pool: without this, the started
    // workers would wait on cv_ forever while their members are torn down.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    // Let any in-flight batch finish before tearing the workers down.
    batch_cv_.wait(lock, [&] { return batch_workers_inside_ == 0; });
  }
  stop_workers();
}

void ThreadPool::stop_workers() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    IndexFnRef batch_fn;
    std::size_t batch_count = 0;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stopping_ || batch_epoch_ != seen_epoch; });
      if (stopping_) return;
      // Enter the current batch: snapshot its descriptor under the lock.
      // run_lanes() never replaces the descriptor while any worker is
      // inside (it waits for batch_workers_inside_ == 0), so the snapshot
      // and the shared cursors always belong to the same batch.
      seen_epoch = batch_epoch_;
      batch_fn = batch_fn_;
      batch_count = batch_count_;
      ++batch_workers_inside_;
    }
    drain_batch(batch_fn, batch_count);
    {
      const std::lock_guard lock(mutex_);
      --batch_workers_inside_;
    }
    batch_cv_.notify_all();
  }
}

void ThreadPool::drain_batch(IndexFnRef fn, std::size_t count) {
  for (;;) {
    const std::size_t i = batch_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    try {
      fn(i);
    } catch (...) {
      {
        const std::lock_guard lock(mutex_);
        if (!batch_error_) batch_error_ = std::current_exception();
      }
    }
    if (batch_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
      // Last index finished: wake the blocked caller. Take the lock so the
      // notification cannot slip between the caller's predicate check and
      // its wait.
      const std::lock_guard lock(mutex_);
      batch_cv_.notify_all();
    }
  }
}

void ThreadPool::run_lanes(std::size_t lanes, IndexFnRef fn) {
  const std::size_t count = lanes;
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One caller owns the pool's batch machinery at a time; concurrent
  // external callers (e.g. two threads sharing global_pool()) serialize
  // here instead of corrupting each other's cursors.
  const std::lock_guard submit_lock(submit_mutex_);
  {
    std::unique_lock lock(mutex_);
    // One batch in flight: wait out any straggler workers of the previous
    // batch before overwriting the descriptor they might still read.
    batch_cv_.wait(lock, [&] { return batch_workers_inside_ == 0; });
    batch_fn_ = fn;
    batch_count_ = count;
    batch_error_ = nullptr;
    batch_next_.store(0, std::memory_order_relaxed);
    batch_done_.store(0, std::memory_order_relaxed);
    ++batch_epoch_;
  }
  cv_.notify_all();
  drain_batch(fn, count);  // the caller participates
  {
    std::unique_lock lock(mutex_);
    batch_cv_.wait(lock,
                   [&] { return batch_done_.load(std::memory_order_acquire) == count; });
    if (batch_error_) {
      const std::exception_ptr err = batch_error_;
      batch_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t max_tasks = std::max<std::size_t>(1, workers_.size() * 4);
  const std::size_t chunk = std::max<std::size_t>(1, (count + max_tasks - 1) / max_tasks);
  const std::size_t num_tasks = (count + chunk - 1) / chunk;

  const auto run_chunk = [&](std::size_t t) {
    const std::size_t end = std::min(count, (t + 1) * chunk);
    for (std::size_t i = t * chunk; i < end; ++i) fn(i);
  };
  run_lanes(num_tasks, run_chunk);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace decycle::util
