// Index-batch thread pool — the execution substrate of the campaign runner
// (src/runner/campaign.hpp), the fuzzer, the hunter and the round-parallel
// sync engine.
//
// The pool runs one kind of work: run_chunks(count, fn, arg) calls fn(arg, i)
// for every i in [0, count) and returns when all calls completed. The batch
// lives on the caller's stack; the caller claims chunks from it inline while
// idle workers help, so a batch started from inside another batch's chunk
// (a trial's round chunks inside a campaign lane) can never deadlock — worst
// case its caller runs it alone.
//
// Trial-level work (campaign, fuzz, hunt) goes through run_lanes: `lanes`
// chunks that each pull the next index from one shared atomic counter. That
// caps the bodies in flight at `lanes` by construction; a pool sized
// thread_budget(jobs, trial_jobs) leaves the spare threads to serve the
// nested round batches, so busy threads never exceed jobs x trial_jobs.
//
// Every piece of shared pool state is mutex-protected (no lock-free
// cleverness), so the pool is ThreadSanitizer-clean by construction; CI runs
// the runner tests under TSan (see CMake option RISE_SANITIZE).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/parallel.hpp"

namespace rise::runner {

class ThreadPool {
 public:
  /// num_threads == 0 means hardware_threads().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();  // joins the workers; no batch may be running

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(arg, i) once for every i in [0, count) and returns when all
  /// calls completed; idle workers help. Allocation-free (the batch lives
  /// on the caller's stack) and safe to call from inside a chunk: the
  /// caller claims chunks inline from its own batch, so even with every
  /// worker busy it simply runs the whole batch itself — nested use
  /// degrades to a serial loop, it can never deadlock. `fn` must not throw
  /// and must not block on another thread's chunk.
  void run_chunks(std::size_t count, void (*fn)(void*, std::size_t),
                  void* arg);

  std::size_t num_threads() const { return threads_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  /// One run_chunks call in progress. Lives on the caller's stack; the
  /// registered pointer and both counters are guarded by mu_.
  struct ChunkBatch {
    void (*fn)(void*, std::size_t);
    void* arg;
    std::size_t count;
    std::size_t next = 0;  ///< next unclaimed chunk index
    std::size_t done = 0;  ///< completed chunks
  };

  void worker_loop();
  void stop();  ///< wakes and joins every worker

  /// Claims and runs one chunk from the oldest batch with work left.
  /// Expects `lock` held on mu_ (dropped around the chunk body); returns
  /// false when no batch has an unclaimed chunk.
  bool run_one_chunk(std::unique_lock<std::mutex>& lock);
  bool claimable_chunk() const;  ///< under mu_

  std::vector<std::thread> threads_;

  std::mutex mu_;                     // guards everything below
  std::condition_variable work_cv_;   // workers: wait for a claimable chunk
  std::condition_variable batch_cv_;  // run_chunks: wait for batch done
  std::vector<ChunkBatch*> batches_;  ///< active run_chunks calls
  bool stopping_ = false;
};

/// The most threads thread_budget grants one pool. Far above any host's
/// useful parallelism, far below the point where starting them exhausts
/// the process's thread or memory limits.
inline constexpr std::size_t kMaxThreads = 4096;

/// Threads for `jobs` concurrent lanes of up to `trial_jobs` round chunks
/// each: jobs x trial_jobs, with jobs == 0 meaning hardware_threads() and
/// trial_jobs == 0 meaning 1. Throws CheckError when the product overflows
/// or exceeds kMaxThreads, before any thread is started.
std::size_t thread_budget(std::size_t jobs, std::uint32_t trial_jobs);

/// Runs body(i) once for every i in [0, count) on at most `lanes` lanes:
/// pool.run_chunks(lanes, ...), each lane taking the next index from one
/// shared atomic counter until none is left. So at most `lanes` bodies are
/// in flight whatever the pool size; a body may itself call
/// pool.run_chunks (see the file comment). A body that throws ends its lane
/// and no lane claims another index; once every lane returned, the
/// exception of the lowest failed index is rethrown. Every lower index was
/// claimed before it and ran to the end, so for bodies that fail
/// deterministically this is the first failing index in index order.
template <typename Body>
void run_lanes(ThreadPool& pool, std::size_t lanes, std::size_t count,
               Body&& body) {
  struct LaneError {
    std::size_t index = 0;
    std::exception_ptr error;
  };
  struct Lanes {
    Body& body;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<LaneError> errors;

    static void run(void* self, std::size_t lane) {
      Lanes& l = *static_cast<Lanes*>(self);
      while (!l.failed) {
        const std::size_t i = l.next++;
        if (i >= l.count) return;
        try {
          l.body(i);
        } catch (...) {
          l.errors[lane] = {i, std::current_exception()};
          l.failed = true;
        }
      }
    }
  };
  lanes = std::min(lanes, count);
  if (lanes == 0) return;
  Lanes state{body, count, {}, {}, std::vector<LaneError>(lanes)};
  pool.run_chunks(lanes, &Lanes::run, &state);
  const LaneError* first = nullptr;
  for (const LaneError& e : state.errors) {
    if (e.error != nullptr && (first == nullptr || e.index < first->index)) {
      first = &e;
    }
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

/// Adapts the pool to the engine's executor interface (sim/parallel.hpp)
/// so a synchronous run can step round chunks on campaign workers. With a
/// null pool it degrades to an inline loop (same results — the engine's
/// parallel path is deterministic for any executor).
class PoolChunkExecutor final : public sim::ChunkExecutor {
 public:
  explicit PoolChunkExecutor(ThreadPool* pool) : pool_(pool) {}

  void run(std::size_t count, void (*fn)(void*, std::size_t),
           void* arg) override {
    if (pool_ != nullptr) {
      pool_->run_chunks(count, fn, arg);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(arg, i);
    }
  }

 private:
  ThreadPool* pool_;
};

}  // namespace rise::runner
