// Flat struct-of-arrays algorithm kernels — the one way to run a trial.
//
// A *kernel* is an algorithm family with its per-node state hoisted into
// parallel vectors (no heap object per node, no pointer chase per event):
//
//   struct FloodingKernel {
//     struct State { bool done = false; };          // one entry per node
//     void reset(const Instance&, RunWorkspace*);   // size state for n nodes
//     template <class Ctx> void on_wake(Ctx&, WakeCause);
//     template <class Ctx> void on_message(Ctx&, const Incoming&);
//     // optional; without it a sync round passes each inbox message to
//     // on_message (sim::deliver_round)
//     template <class Ctx> void on_round(Ctx&, std::span<const Incoming>);
//   };
//
// A kernel is its own engine Handler (sim/engine_impl.hpp): the hooks are
// templates over the engine's concrete context type (a final
// sim::NodeContext, sim/context.hpp; nothing in it is virtual), so every
// ctx.send / ctx.rng / state access inlines into the event loop. Kernels
// are the one way to write an algorithm: the built-in families, the advice
// schemes, the lower-bound algorithms (lb/), and test fakes alike. Only
// kernels whose round does more than deliver its messages — the sleeping
// families, FastWakeUp, gossip — define on_round. A kernel that wraps
// another (lb::NihKernel) holds the inner kernel by value and forwards the
// hooks it does not intercept.
//
// KernelRunner type-erases a kernel behind two std::functions so app-layer
// code (PreparedExperiment, rise_cli) can carry "how to run this family"
// without knowing the concrete type. The prototype kernel captured in
// make_kernel is copied once per run: a PreparedExperiment is shared across
// campaign worker threads, so the shared prototype is never mutated — all
// mutable state lives in the per-run copy and the per-thread workspace.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/adversary.hpp"
#include "sim/async_engine.hpp"
#include "sim/context.hpp"
#include "sim/delay_policy.hpp"
#include "sim/engine_impl.hpp"
#include "sim/instance.hpp"
#include "sim/metrics.hpp"
#include "sim/sync_engine.hpp"
#include "sim/trace.hpp"
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
/// instances are empty (operator bool is false) and must not be run.
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
/// Slots are keyed by typeid(State), so every kernel — a wrapper and the
/// kernel it wraps included — needs a State type of its own.
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
                                    a.limits, a.workspace);
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

/// One-call conveniences: run `kernel` once without a workspace. A sync
/// run's `probe`, when given, collects the kernel's obs counters.
RunResult run_async(const Instance& instance, const DelayPolicy& delays,
                    const WakeSchedule& schedule, std::uint64_t seed,
                    const KernelRunner& kernel, const RunLimits& limits = {},
                    TraceSink* trace = nullptr);

RunResult run_sync(const Instance& instance, const WakeSchedule& schedule,
                   std::uint64_t seed, const KernelRunner& kernel,
                   const SyncRunLimits& limits = {},
                   TraceSink* trace = nullptr, obs::Probe* probe = nullptr);

}  // namespace rise::sim
