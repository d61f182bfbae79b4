#include "sim/kernel.hpp"

namespace rise::sim {

namespace {

/// process_kernel's adapter: one Process per node behind the kernel hooks.
class ProcessKernel {
 public:
  using Processes = std::vector<std::unique_ptr<Process>>;

  explicit ProcessKernel(ProcessFactory factory)
      : factory_(std::move(factory)) {}
  /// Copies the configuration only: every run builds its own Processes.
  ProcessKernel(const ProcessKernel& other) : factory_(other.factory_) {}
  ProcessKernel& operator=(const ProcessKernel&) = delete;

  void reset(const Instance& instance, RunWorkspace* workspace) {
    processes_ = &acquire_kernel_state(workspace, own_);
    const NodeId n = instance.num_nodes();
    processes_->resize(n);
    for (NodeId u = 0; u < n; ++u) (*processes_)[u] = factory_(u);
  }

  template <class Ctx>
  void on_wake(Ctx& ctx, WakeCause cause) {
    (*processes_)[ctx.node()]->on_wake(ctx, cause);
  }
  template <class Ctx>
  void on_message(Ctx& ctx, const Incoming& in) {
    (*processes_)[ctx.node()]->on_message(ctx, in);
  }
  template <class Ctx>
  void on_round(Ctx& ctx, std::span<const Incoming> inbox) {
    (*processes_)[ctx.node()]->on_round(ctx, inbox);
  }

 private:
  ProcessFactory factory_;
  Processes own_;
  Processes* processes_ = nullptr;
};

}  // namespace

KernelRunner process_kernel(ProcessFactory factory) {
  return make_kernel(ProcessKernel(std::move(factory)));
}

RunResult run_async(const Instance& instance, const DelayPolicy& delays,
                    const WakeSchedule& schedule, std::uint64_t seed,
                    const KernelRunner& kernel, const RunLimits& limits,
                    TraceSink* trace) {
  AsyncKernelArgs args;
  args.instance = &instance;
  args.delays = &delays;
  args.schedule = &schedule;
  args.seed = seed;
  args.limits = limits;
  args.trace = trace;
  return kernel.run_async(args);
}

RunResult run_sync(const Instance& instance, const WakeSchedule& schedule,
                   std::uint64_t seed, const KernelRunner& kernel,
                   const SyncRunLimits& limits, TraceSink* trace) {
  SyncKernelArgs args;
  args.instance = &instance;
  args.schedule = &schedule;
  args.seed = seed;
  args.limits = limits;
  args.trace = trace;
  return kernel.run_sync(args);
}

}  // namespace rise::sim
