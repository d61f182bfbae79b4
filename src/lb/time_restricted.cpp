#include "lb/time_restricted.hpp"

namespace rise::lb {

sim::KernelRunner ttl_flood_kernel(std::uint32_t ttl) {
  return sim::make_kernel(TtlFloodKernel(ttl));
}

}  // namespace rise::lb
