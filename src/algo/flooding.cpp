#include "algo/flooding.hpp"

namespace rise::algo {

sim::KernelRunner flooding_kernel() {
  return sim::make_kernel(FloodingKernel{});
}

}  // namespace rise::algo
