#include "algo/ranked_dfs.hpp"

#include <utility>

#include "support/check.hpp"

namespace rise::algo {

sim::Message RankedDfsKernel::list_message(
    std::uint32_t type, std::initializer_list<std::uint64_t> header,
    std::span<const sim::Label> visited, bool first_visit, sim::Label me,
    std::uint64_t header_bits, unsigned label_bits) {
  const std::size_t count = visited.size() + (first_visit ? 1 : 0);
  sim::PayloadWords payload;
  payload.reserve(header.size() + 1 + count);
  payload.append(header.begin(), header.end());
  payload.push_back(count);
  payload.append(visited.data(), visited.data() + visited.size());
  if (first_visit) payload.push_back(me);
  return sim::make_message(type, std::move(payload),
                           header_bits + std::uint64_t{label_bits} * count);
}

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
