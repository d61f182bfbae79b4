#include "runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace rise::runner {
namespace {

TEST(ThreadPool, ResultsLandInDistinctSlots) {
  // The campaign runner's pattern: each index owns one slot of a pre-sized
  // plain vector; run_chunks returning must publish every write.
  constexpr int kSlots = 512;
  ThreadPool pool(8);
  std::vector<int> slots(kSlots, -1);
  pool.run_chunks(
      slots.size(),
      [](void* arg, std::size_t i) {
        (*static_cast<std::vector<int>*>(arg))[i] = static_cast<int>(i * i);
      },
      &slots);
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(slots[static_cast<std::size_t>(i)], i * i);
  }
}

void add_index(void* sum, std::size_t i) {
  static_cast<std::atomic<long>*>(sum)->fetch_add(
      static_cast<long>(i), std::memory_order_relaxed);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.run_chunks(3, &add_index, &sum);
  EXPECT_EQ(sum.load(), 3);
  pool.run_chunks(5, &add_index, &sum);
  EXPECT_EQ(sum.load(), 3 + 10);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  ThreadPool pool(0);  // 0 = hardware
  EXPECT_EQ(pool.num_threads(), ThreadPool::hardware_threads());
  std::atomic<long> sum{0};
  pool.run_chunks(2 * pool.num_threads() + 1, &add_index, &sum);
  const long n = static_cast<long>(2 * pool.num_threads() + 1);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, ManyMoreThreadsThanCoresWork) {
  ThreadPool pool(16);
  std::atomic<long> sum{0};
  pool.run_chunks(201, &add_index, &sum);
  EXPECT_EQ(sum.load(), 200L * 201L / 2);
}

TEST(ThreadPool, ThreadBudgetIsJobsTimesTrialJobs) {
  EXPECT_EQ(thread_budget(3, 2), 6u);
  EXPECT_EQ(thread_budget(3, 0), 3u);  // trial_jobs 0 = 1
  EXPECT_EQ(thread_budget(0, 1), ThreadPool::hardware_threads());
  EXPECT_EQ(thread_budget(0, 4), 4 * ThreadPool::hardware_threads());
  EXPECT_EQ(thread_budget(kMaxThreads / 4, 4), kMaxThreads);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  // A product that wraps would read as 0 = "all hardware threads".
  EXPECT_THROW(thread_budget(max / 2 + 1, 2), CheckError);
  EXPECT_THROW(thread_budget(max, 4294967295u), CheckError);
}

// The budget is checked before any pool exists, so these ask for millions
// of threads without starting one.
TEST(ThreadPool, ThreadBudgetRejectsMoreThanTheThreadCeiling) {
  EXPECT_THROW(thread_budget(kMaxThreads + 1, 1), CheckError);
  EXPECT_THROW(thread_budget(kMaxThreads / 4, 5), CheckError);
  EXPECT_THROW(thread_budget(std::numeric_limits<std::size_t>::max() / 2, 2),
               CheckError);
  try {
    thread_budget(100000, 100);
    FAIL() << "a budget of 10^7 threads was granted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "jobs 100000 x trial_jobs 100 exceeds the limit of 4096"),
              std::string::npos)
        << e.what();
  }
}

// ---- run_chunks (the round-parallel chunk executor substrate) ----------

namespace {

/// Marks chunk i in a flags vector; run_chunks' contract is every index in
/// [0, count) exactly once.
struct ChunkFlags {
  explicit ChunkFlags(std::size_t count) : hits(count) {}
  static void mark(void* self, std::size_t i) {
    auto& flags = *static_cast<ChunkFlags*>(self);
    flags.hits[i].fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int>> hits;
};

}  // namespace

TEST(ThreadPoolChunks, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{64}, std::size_t{1000}}) {
    ChunkFlags flags(count);
    pool.run_chunks(count, &ChunkFlags::mark, &flags);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(flags.hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(ThreadPoolChunks, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  ChunkFlags flags(128);
  pool.run_chunks(128, &ChunkFlags::mark, &flags);
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
}

// The deadlock-freedom contract: a task already running ON the pool may
// call run_chunks. The caller claims chunks from its own batch inline, so
// it makes progress even when every worker (itself included) is occupied —
// worst case it runs the whole batch serially on its own thread.
TEST(ThreadPoolChunks, NestedCallFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  struct Outer {
    ThreadPool* pool;
    std::atomic<int> total{0};
  } outer{&pool};
  pool.run_chunks(
      8,
      [](void* arg, std::size_t) {
        Outer& o = *static_cast<Outer*>(arg);
        ChunkFlags flags(50);
        o.pool->run_chunks(50, &ChunkFlags::mark, &flags);
        int sum = 0;
        for (auto& h : flags.hits) sum += h.load();
        o.total.fetch_add(sum, std::memory_order_relaxed);
      },
      &outer);
  EXPECT_EQ(outer.total.load(), 8 * 50);
}

// Every worker blocked inside another caller's batch: the run_chunks caller
// must not wait for a free worker, it inlines the batch itself.
TEST(ThreadPoolChunks, BusyPoolFallsBackToCallerInline) {
  ThreadPool pool(2);
  struct Blocker {
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> entered{0};
  } blocker;
  auto block = [](void* arg, std::size_t) {
    Blocker& b = *static_cast<Blocker*>(arg);
    b.entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(b.mu);
    b.cv.wait(lock, [&b] { return b.release; });
  };
  // Three chunks: the blocking thread and both workers each end up in one.
  std::thread holder([&] { pool.run_chunks(3, block, &blocker); });
  while (blocker.entered.load() < 3) std::this_thread::yield();
  ChunkFlags flags(64);
  pool.run_chunks(64, &ChunkFlags::mark, &flags);  // caller's thread only
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
  {
    std::lock_guard<std::mutex> lock(blocker.mu);
    blocker.release = true;
  }
  blocker.cv.notify_all();
  holder.join();
}

// Concurrent batches from independent threads must not cross wires: each
// caller waits for exactly its own batch.
TEST(ThreadPoolChunks, ConcurrentBatchesStayIndependent) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  std::vector<std::thread> callers;
  std::vector<int> sums(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int round = 0; round < 20; ++round) {
        ChunkFlags flags(31);
        pool.run_chunks(31, &ChunkFlags::mark, &flags);
        for (auto& h : flags.hits) sums[static_cast<std::size_t>(c)] += h;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c], 20 * 31);
}

TEST(ThreadPoolChunks, PoolChunkExecutorRunsInlineWithoutPool) {
  PoolChunkExecutor executor(nullptr);
  ChunkFlags flags(10);
  executor.run(10, &ChunkFlags::mark, &flags);
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolChunks, PoolChunkExecutorUsesPool) {
  ThreadPool pool(3);
  PoolChunkExecutor executor(&pool);
  ChunkFlags flags(200);
  executor.run(200, &ChunkFlags::mark, &flags);
  for (auto& h : flags.hits) EXPECT_EQ(h.load(), 1);
}

// ---- run_lanes (the trial-level loop of campaign, fuzz and hunt) --------

TEST(ThreadPoolLanes, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      run_lanes(pool, lanes, count, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "lanes=" << lanes << " count=" << count << " i=" << i;
      }
    }
  }
}

/// Raises `peak` to at least `value`.
void raise_peak(std::atomic<int>& peak, int value) {
  int seen = peak.load();
  while (seen < value && !peak.compare_exchange_weak(seen, value)) {
  }
}

// The campaign/hunt shape: `jobs` lanes over many trials on a pool of
// jobs x trial_jobs threads, each trial fanning its rounds out into
// trial_jobs nested chunks. The spare threads may only serve round chunks:
// at most `jobs` trials are ever in flight, and at most jobs x trial_jobs
// chunks run at once. Submitting one pool task per trial into the same pool
// would let up to jobs x trial_jobs trials run at once.
TEST(ThreadPoolLanes, AtMostJobsBodiesInFlightWithNestedRoundBatches) {
  constexpr std::size_t kJobs = 3;
  constexpr std::uint32_t kTrialJobs = 2;
  ThreadPool pool(thread_budget(kJobs, kTrialJobs));
  ASSERT_EQ(pool.num_threads(), kJobs * kTrialJobs);
  struct Counters {
    std::atomic<int> bodies{0}, peak_bodies{0};
    std::atomic<int> chunks{0}, peak_chunks{0};
    std::atomic<int> chunks_run{0};
  } c;
  auto round_chunk = [](void* arg, std::size_t) {
    Counters& k = *static_cast<Counters*>(arg);
    raise_peak(k.peak_chunks, k.chunks.fetch_add(1) + 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    k.chunks.fetch_sub(1);
    k.chunks_run.fetch_add(1);
  };
  constexpr std::size_t kTrials = 120;
  run_lanes(pool, kJobs, kTrials, [&](std::size_t) {
    raise_peak(c.peak_bodies, c.bodies.fetch_add(1) + 1);
    for (int round = 0; round < 3; ++round) {
      pool.run_chunks(kTrialJobs, round_chunk, &c);
    }
    c.bodies.fetch_sub(1);
  });
  EXPECT_EQ(c.chunks_run.load(), static_cast<int>(kTrials * 3 * kTrialJobs));
  EXPECT_LE(c.peak_bodies.load(), static_cast<int>(kJobs));
  EXPECT_LE(c.peak_chunks.load(), static_cast<int>(kJobs * kTrialJobs));
}

TEST(ThreadPoolLanes, RethrowsTheLowestFailingIndexAndStopsClaiming) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::atomic<int> ran{0};
    try {
      run_lanes(pool, 4, 1000, [&ran](std::size_t i) {
        ran.fetch_add(1);
        if (i >= 40) throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "run_lanes swallowed the exception";
    } catch (const std::runtime_error& e) {
      // Every index below the first failure to be seen was claimed earlier
      // and ran, so index 40 always failed and always wins.
      EXPECT_STREQ(e.what(), "index 40");
    }
    // A throw ends its lane, and every index >= 40 throws, so each of the
    // four lanes claims at most one of them.
    EXPECT_LE(ran.load(), 40 + 4);
  }
}

}  // namespace
}  // namespace rise::runner
