// Flat struct-of-arrays algorithm kernels — the allocation-free execution
// path for million-node runs.
//
// The Process path allocates one heap object per node and dispatches every
// hook through a vtable; at n = 10^6 that is a million allocations per trial
// and a random pointer chase per event. A *kernel* is the same algorithm
// with its per-node members hoisted into parallel vectors:
//
//   struct FloodingKernel {
//     struct State { bool done = false; };          // was: Process members
//     void reset(const Instance&, RunWorkspace*);   // size state for n nodes
//     template <class Ctx> void on_wake(Ctx&, WakeCause);
//     template <class Ctx> void on_message(Ctx&, const Incoming&);
//     template <class Ctx> void on_round(Ctx&, std::span<const Incoming>);
//   };
//
// A kernel is its own engine Handler (sim/engine_impl.hpp): the hooks are
// templates over the engine's final context type, so every ctx.send /
// ctx.rng / state access inlines into the event loop — no vtable on either
// side of the hot path. Hook bodies are mechanical ports of the Process
// versions (member access becomes state(ctx) access), which makes the two
// paths bit-identical: same RNG draws, same message encodings, same probe
// marks. test_sim_kernels pins that equivalence digest-by-digest.
//
// KernelRunner type-erases a kernel behind two std::functions so app-layer
// code (PreparedExperiment, rise_cli) can carry "how to run this family
// fast" without knowing the concrete type. The prototype kernel captured in
// make_kernel is copied once per run: a PreparedExperiment is shared across
// campaign worker threads, so the shared prototype is never mutated — all
// mutable state lives in the per-run copy and the per-thread workspace.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/engine_impl.hpp"
#include "sim/workspace.hpp"

namespace rise::sim {

/// Everything an async kernel run needs; pointer members because the struct
/// is assembled piecemeal by callers with different defaulting needs.
struct AsyncKernelArgs {
  const Instance* instance = nullptr;
  const DelayPolicy* delays = nullptr;
  const WakeSchedule* schedule = nullptr;
  std::uint64_t seed = 0;
  RunLimits limits;
  TraceSink* trace = nullptr;
  obs::Probe* probe = nullptr;
  EventQueue::Mode queue_mode = EventQueue::Mode::kAuto;
  RunWorkspace* workspace = nullptr;
};

struct SyncKernelArgs {
  const Instance* instance = nullptr;
  const WakeSchedule* schedule = nullptr;
  std::uint64_t seed = 0;
  SyncRunLimits limits;
  TraceSink* trace = nullptr;
  obs::Probe* probe = nullptr;
  RunWorkspace* workspace = nullptr;
  /// Round-parallel stepping (sim/parallel.hpp); default = sequential.
  /// Bit-identical results for any job count.
  SyncParallel parallel;
};

/// Type-erased kernel: runs one family under either engine. Default-built
/// instances are empty (operator bool is false) — callers fall back to the
/// Process path.
class KernelRunner {
 public:
  using AsyncFn = std::function<RunResult(const AsyncKernelArgs&)>;
  using SyncFn = std::function<RunResult(const SyncKernelArgs&)>;

  KernelRunner() = default;
  KernelRunner(AsyncFn run_async, SyncFn run_sync)
      : async_(std::move(run_async)), sync_(std::move(run_sync)) {}

  explicit operator bool() const { return static_cast<bool>(async_); }

  RunResult run_async(const AsyncKernelArgs& args) const {
    return async_(args);
  }
  RunResult run_sync(const SyncKernelArgs& args) const { return sync_(args); }

 private:
  AsyncFn async_;
  SyncFn sync_;
};

/// Binds a kernel's state vector to the workspace's type-tagged slot for
/// its family so runs of the same family reuse capacity; without a
/// workspace the kernel's own member storage is used. Call from K::reset.
template <class State>
State& acquire_kernel_state(RunWorkspace* workspace, State& fallback) {
  if (workspace == nullptr) return fallback;
  auto& slots = workspace->kernel_states;
  auto it = std::find_if(slots.begin(), slots.end(), [](const auto& slot) {
    return slot.type == &typeid(State);
  });
  if (it == slots.end()) {
    if (slots.size() == RunWorkspace::kKernelStateSlots) slots.pop_back();
    slots.push_back({&typeid(State), std::make_shared<State>()});
    it = slots.end() - 1;
  }
  std::rotate(slots.begin(), it, it + 1);  // most recent first
  return *static_cast<State*>(slots.front().state.get());
}

/// Wraps a configured kernel prototype as a KernelRunner. The prototype is
/// copied for every run (kernels are cheap to copy: config scalars plus
/// empty-or-recycled vectors), keeping the shared prototype immutable under
/// concurrent campaign workers.
template <class K>
KernelRunner make_kernel(K prototype) {
  auto async_fn = [prototype](const AsyncKernelArgs& a) -> RunResult {
    EngineCore core(*a.instance, a.delays->max_delay(), a.seed, a.trace,
                    a.probe, a.workspace);
    K kernel = prototype;
    kernel.reset(*a.instance, a.workspace);
    internal::AsyncRunner<K> runner(kernel, core, *a.delays, *a.schedule,
                                    a.limits, a.queue_mode, a.workspace);
    return runner.run();
  };
  auto sync_fn = [prototype](const SyncKernelArgs& a) -> RunResult {
    EngineCore core(*a.instance, /*tau=*/1, a.seed, a.trace, a.probe,
                    a.workspace);
    K kernel = prototype;
    kernel.reset(*a.instance, a.workspace);
    internal::SyncRunner<K> runner(kernel, core, *a.schedule, a.limits,
                                   a.workspace, a.parallel);
    return runner.run();
  };
  return KernelRunner(std::move(async_fn), std::move(sync_fn));
}

}  // namespace rise::sim
