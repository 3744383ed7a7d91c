#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

namespace decycle::util {
namespace {

/// ASan and TSan reserve terabytes of shadow address space, so an
/// address-space limit cannot be applied under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kShadowMemory = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kShadowMemory = true;
#else
constexpr bool kShadowMemory = false;
#endif
#else
constexpr bool kShadowMemory = false;
#endif

TEST(ThreadPool, RunsRequestedThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

/// parallel_for's chunks partition [0, count) exactly, whether or not the
/// count divides into the pool's chunking.
TEST(ThreadPool, ChunkedRangesPartitionExactly) {
  for (const std::size_t workers : {1u, 3u, 4u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {1u, 5u, 12u, 13u, 1237u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, SequentialConsistencyOfResults) {
  ThreadPool pool(8);
  std::vector<std::uint64_t> out(5000);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ManySmallBatches) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(7, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(ThreadPool, RunLanesCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  const auto fn = [&](std::size_t i) { hits[i].fetch_add(1); };
  pool.run_lanes(kN, fn);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

/// Zero lanes run nothing, one lane runs on the caller, and fewer lanes
/// than workers still run each lane exactly once.
TEST(ThreadPool, RunLanesSmallCountsCoverEveryLaneOnce) {
  ThreadPool pool(8);
  for (std::size_t count = 0; count <= 9; ++count) {
    std::vector<std::atomic<int>> hits(count);
    std::vector<std::thread::id> runner(count);
    const auto fn = [&](std::size_t i) {
      hits[i].fetch_add(1);
      runner[i] = std::this_thread::get_id();
    };
    pool.run_lanes(count, fn);
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << count << "/" << i;
    if (count == 1) {
      EXPECT_EQ(runner[0], std::this_thread::get_id());
    }
  }
}

TEST(ThreadPool, RunLanesSingleWorkerPoolCoversAll) {
  ThreadPool one(1);
  std::vector<std::atomic<int>> hits(300);
  const auto fn = [&](std::size_t i) { hits[i].fetch_add(1); };
  one.run_lanes(hits.size(), fn);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, RunLanesPropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  const auto boom = [&](std::size_t i) {
    ran.fetch_add(1);
    if (i == 13) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run_lanes(64, boom), std::runtime_error);
  EXPECT_EQ(ran.load(), 64);  // the remaining lanes still ran
  std::atomic<std::size_t> sum{0};
  const auto add = [&](std::size_t i) { sum.fetch_add(i); };
  pool.run_lanes(100, add);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, RunLanesBackToBackBatches) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  const auto bump = [&](std::size_t) { total.fetch_add(1); };
  for (int round = 0; round < 200; ++round) pool.run_lanes(5, bump);
  EXPECT_EQ(total.load(), 1000);
}

/// A pool that cannot start all its workers stops and joins the ones it
/// started and throws std::system_error, instead of leaving them blocked
/// (which hangs the process). A forked child lowers its address-space limit
/// a little above its current size and asks for 4096 workers, whose stacks
/// cannot all fit; the alarm turns a hang into a failure.
TEST(ThreadPool, FailedSpawnStopsStartedWorkersAndThrows) {
  if (kShadowMemory) GTEST_SKIP() << "sanitizer shadow memory defeats RLIMIT_AS";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(20);
    long pages = 0;
    if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(statm, "%ld", &pages) != 1) pages = 0;
      std::fclose(statm);
    }
    rlimit limit{};
    if (pages == 0 || getrlimit(RLIMIT_AS, &limit) != 0) _exit(10);
    limit.rlim_cur = static_cast<rlim_t>(pages) * sysconf(_SC_PAGESIZE) + (rlim_t{128} << 20);
    if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(10);
    try {
      const ThreadPool pool(4096);
      _exit(11);  // every worker started: the limit did not bite
    } catch (const std::system_error&) {
      _exit(0);
    } catch (...) {
      _exit(12);
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace decycle::util
