#include "algo/ranked_dfs.hpp"

#include <utility>
#include <vector>

#include "support/check.hpp"

namespace rise::algo {

sim::Message RankedDfsKernel::encode_token(
    std::uint64_t rank, sim::Label origin,
    const std::vector<sim::Label>& visited, unsigned label_bits,
    unsigned rank_bits) {
  sim::PayloadWords payload;
  payload.reserve(3 + visited.size());
  payload.push_back(rank);
  payload.push_back(origin);
  payload.push_back(visited.size());
  payload.append(visited.begin(), visited.end());
  // Logical size: rank + origin + the full visited list (LOCAL model).
  const std::uint64_t bits =
      rank_bits + label_bits * (1 + visited.size()) + 32;
  return sim::make_message(kDfsToken, std::move(payload), bits);
}

RankedDfsKernel::TokenView RankedDfsKernel::decode_token(
    const sim::Message& msg) {
  RISE_CHECK(msg.type == kDfsToken && msg.payload.size() >= 3);
  TokenView t;
  t.rank = msg.payload[0];
  t.origin = msg.payload[1];
  const std::uint64_t count = msg.payload[2];
  RISE_CHECK(msg.payload.size() == 3 + count);
  t.visited.assign(msg.payload.begin() + 3, msg.payload.end());
  return t;
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
