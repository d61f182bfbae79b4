// Intra-trial parallel execution plumbing (PR 10).
//
// The synchronous engine can step the active nodes of one round on several
// threads (see SyncRunner::step_round in sim/engine_impl.hpp). The sim
// layer cannot depend on runner::ThreadPool — app and runner already depend
// on sim — so the engine talks to "something that runs N chunks" through
// the ChunkExecutor interface below; runner::PoolChunkExecutor
// (runner/thread_pool.hpp) adapts the campaign pool to it.
//
// The function-pointer signature (no std::function) is deliberate: the
// executor is invoked twice per simulated round on the million-node hot
// path, and a capturing std::function could allocate. Callers pass a
// trivially-addressable context through `arg`.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rise::sim {

/// Runs fn(arg, i) exactly once for every i in [0, count), possibly
/// concurrently, and returns only after all invocations completed. `fn`
/// must not throw (the engine catches chunk-level exceptions into
/// per-chunk slots itself).
class ChunkExecutor {
 public:
  virtual ~ChunkExecutor() = default;
  virtual void run(std::size_t count, void (*fn)(void*, std::size_t),
                   void* arg) = 0;
};

/// Runs every chunk inline on the calling thread. Used as the default
/// executor when trial_jobs > 1 but no thread pool is wired in: the engine
/// still splits rounds into that many chunks and buckets (so tests and the
/// fuzzer exercise the chunk boundaries deterministically) without
/// spawning threads.
class SerialChunkExecutor final : public ChunkExecutor {
 public:
  void run(std::size_t count, void (*fn)(void*, std::size_t),
           void* arg) override {
    for (std::size_t i = 0; i < count; ++i) fn(arg, i);
  }
};

/// How a synchronous run parallelizes its rounds. Default-constructed =
/// disabled = every round is one chunk stepped on the calling thread.
struct SyncParallel {
  ChunkExecutor* executor = nullptr;
  std::uint32_t jobs = 1;  ///< chunks per round; 1 = serial

  bool enabled() const { return jobs > 1 && executor != nullptr; }
};

}  // namespace rise::sim
