/// \file pool_alloc.hpp
/// \brief Size-classed pool allocator for lane-confined hot-path state.
///
/// Construction-heavy sweeps (lab lanes, soak campaigns, repeated
/// Simulator::reset) rebuild n node programs per trial; with the global
/// heap every rebuild is n malloc/free round trips through a contended
/// allocator. This pool — after the ponyrt runtime's POOL_ALLOC/POOL_FREE
/// idiom — carves large slabs into power-of-two size classes (32 B … 1 MiB)
/// and keeps freed blocks on per-class free lists, so the steady state of a
/// reset/run/reset loop recycles blocks without touching the heap at all:
/// the first trial's allocations set the high-water mark, every later trial
/// is malloc-free (extending DESIGN.md §4's zero-steady-state-allocation
/// guarantee from the round loop to whole trial sweeps).
///
/// Deliberately NOT thread-safe. Every pool is lane-confined: the
/// Simulator's program pool is only touched from reset() (serial) and
/// program destruction (serial), and each lab/soak lane owns its own
/// Simulator and therefore its own pool. The batch protocol of
/// ThreadPool::run_lanes provides the happens-before edges when a lane's
/// objects migrate between worker threads across batches.
///
/// Two layers:
///   * PoolAllocator — the raw classed allocator (allocate/deallocate with
///     explicit sizes, oversize requests fall through to the global heap);
///   * pooled_allocate/pooled_deallocate — a headered wrapper used by
///     NodeProgram's class-level operator new/delete: each block remembers
///     its origin pool, so objects can be deleted after the TLS scope that
///     allocated them ended (but never after the pool itself is destroyed).
///     Outside any PoolScope the wrapper degrades to the global heap, so
///     programs built without a simulator (unit tests, ad-hoc probes) work
///     unchanged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace decycle::util {

class PoolAllocator {
 public:
  static constexpr std::size_t kMinClassLog = 5;   ///< 32 B smallest class
  static constexpr std::size_t kMaxClassLog = 20;  ///< 1 MiB largest class
  static constexpr std::size_t kNumClasses = kMaxClassLog - kMinClassLog + 1;
  /// Slabs are carved in 64 KiB units (or one block, if the class is larger).
  static constexpr std::size_t kSlabBytes = std::size_t{64} * 1024;

  PoolAllocator() = default;
  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;
  ~PoolAllocator() = default;  // slabs release; all blocks must be dead

  /// Returns a block of at least \p bytes (rounded up to its size class),
  /// aligned to alignof(std::max_align_t). Requests above the largest class
  /// go straight to the global heap.
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// Returns a block obtained from allocate(\p bytes) — the same byte count
  /// must be passed back (callers that need free-without-size keep their own
  /// header; see pooled_allocate).
  void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t allocations = 0;    ///< allocate() calls served by a class
    std::uint64_t slab_allocations = 0;  ///< times a fresh slab was carved
    std::uint64_t oversize = 0;       ///< requests above the largest class
    std::size_t slab_bytes = 0;       ///< total bytes held in slabs
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  /// Smallest class index whose block size holds \p bytes.
  [[nodiscard]] static std::size_t class_for(std::size_t bytes) noexcept;
  [[nodiscard]] static constexpr std::size_t class_bytes(std::size_t cls) noexcept {
    return std::size_t{1} << (cls + kMinClassLog);
  }

  /// Carves a fresh slab for \p cls and threads its blocks onto the free list.
  void grow(std::size_t cls);

  std::array<FreeNode*, kNumClasses> free_{};
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  Stats stats_;
};

/// Headered allocation routed to the calling thread's current PoolScope
/// pool (or the global heap when no scope is active). The returned pointer
/// is aligned to 16 bytes; the header remembers the origin, so
/// pooled_deallocate works from any thread-local state.
[[nodiscard]] void* pooled_allocate(std::size_t bytes);
void pooled_deallocate(void* p) noexcept;

/// RAII scope installing \p pool as the calling thread's pooled_allocate
/// target. Scopes nest (the previous target is restored); pass nullptr to
/// force the global heap inside an outer scope.
class PoolScope {
 public:
  explicit PoolScope(PoolAllocator* pool) noexcept;
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  PoolAllocator* prev_;
};

/// The calling thread's current pooled_allocate target (nullptr outside any
/// PoolScope). Exposed for tests.
[[nodiscard]] PoolAllocator* current_pool() noexcept;

}  // namespace decycle::util
