#include "algo/ranked_dfs.hpp"

#include "support/check.hpp"

namespace rise::algo {

sim::KernelRunner ranked_dfs_kernel(RankedDfsProbe* probe,
                                    unsigned rank_bits) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return sim::make_kernel(RankedDfsKernel(probe, rank_bits,
                                          /*discard_losers=*/true,
                                          /*elect=*/false));
}

sim::KernelRunner ranked_dfs_leader_kernel(RankedDfsProbe* probe,
                                           unsigned rank_bits) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return sim::make_kernel(RankedDfsKernel(probe, rank_bits,
                                          /*discard_losers=*/true,
                                          /*elect=*/true));
}

sim::KernelRunner ranked_dfs_no_discard_kernel(RankedDfsProbe* probe,
                                               unsigned rank_bits) {
  RISE_CHECK(rank_bits >= 8 && rank_bits <= 62);
  return sim::make_kernel(RankedDfsKernel(probe, rank_bits,
                                          /*discard_losers=*/false,
                                          /*elect=*/false));
}

}  // namespace rise::algo
