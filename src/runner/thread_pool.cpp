#include "runner/thread_pool.hpp"

#include <limits>

#include "support/check.hpp"

namespace rise::runner {

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n =
      num_threads == 0 ? hardware_threads() : num_threads;
  threads_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();  // a thread failed to start: join the ones that did
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::claimable_chunk() const {
  for (const ChunkBatch* b : batches_) {
    if (b->next < b->count) return true;
  }
  return false;
}

bool ThreadPool::run_one_chunk(std::unique_lock<std::mutex>& lock) {
  for (ChunkBatch* b : batches_) {
    if (b->next >= b->count) continue;
    const std::size_t i = b->next++;
    lock.unlock();
    b->fn(b->arg, i);
    lock.lock();
    // `b` stays valid: run_chunks only unregisters a batch after done ==
    // count, and this chunk's completion has not been counted yet.
    if (++b->done == b->count) batch_cv_.notify_all();
    return true;
  }
  return false;
}

void ThreadPool::run_chunks(std::size_t count, void (*fn)(void*, std::size_t),
                            void* arg) {
  RISE_CHECK_MSG(fn != nullptr, "ThreadPool: null chunk function");
  if (count == 0) return;
  if (count == 1) {  // nothing to share — skip the registration round-trip
    fn(arg, 0);
    return;
  }
  ChunkBatch batch{fn, arg, count};
  {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(&batch);
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  // Claim chunks inline from our own batch. This guarantees progress no
  // matter what the workers are doing (they may all be parked inside
  // run_chunks calls of their own), which is what makes nested use
  // deadlock-free: worst case the caller runs every chunk itself.
  while (batch.next < batch.count) {
    const std::size_t i = batch.next++;
    lock.unlock();
    fn(arg, i);
    lock.lock();
    ++batch.done;
  }
  batch_cv_.wait(lock, [&batch] { return batch.done == batch.count; });
  batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (run_one_chunk(lock)) continue;
    if (stopping_) return;
    work_cv_.wait(lock, [this] { return stopping_ || claimable_chunk(); });
  }
}

std::size_t thread_budget(std::size_t jobs, std::uint32_t trial_jobs) {
  const std::size_t lanes = jobs == 0 ? ThreadPool::hardware_threads() : jobs;
  const std::size_t per_lane = std::max<std::uint32_t>(1, trial_jobs);
  RISE_CHECK_MSG(lanes <= std::numeric_limits<std::size_t>::max() / per_lane,
                 "jobs " << lanes << " x trial_jobs " << per_lane
                           << " overflows the thread count");
  RISE_CHECK_MSG(lanes * per_lane <= kMaxThreads,
                 "jobs " << lanes << " x trial_jobs " << per_lane
                         << " exceeds the limit of " << kMaxThreads
                         << " threads");
  return lanes * per_lane;
}

}  // namespace rise::runner
