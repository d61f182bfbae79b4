#include "sim/kernel.hpp"

namespace rise::sim {

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
                   const SyncRunLimits& limits, TraceSink* trace,
                   obs::Probe* probe) {
  SyncKernelArgs args;
  args.instance = &instance;
  args.schedule = &schedule;
  args.seed = seed;
  args.limits = limits;
  args.trace = trace;
  args.probe = probe;
  return kernel.run_sync(args);
}

}  // namespace rise::sim
