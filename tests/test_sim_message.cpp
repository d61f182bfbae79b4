// Message header unit tests: the logical-size rule and the word-count
// range.
#include "sim/message.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "support/check.hpp"

namespace rise::sim {
namespace {

TEST(Message, LogicalBitsDefaultAndDeclared) {
  const Message plain(0, 0, 3);
  EXPECT_EQ(plain.logical_bits(), 8u + 64u * 3u);  // conservative default
  EXPECT_EQ(Message().logical_bits(), 8u);
  const Message sized(5, 17, 3);
  EXPECT_EQ(sized.logical_bits(), 17u);
  EXPECT_EQ(sized.type, 5u);
  EXPECT_EQ(sized.size, 3u);
}

TEST(Message, WordCountAbove32BitsThrows) {
  EXPECT_THROW(Message(1, 0, std::size_t{1} << 32), CheckError);
  EXPECT_EQ(Message(1, 0, UINT32_MAX).size, UINT32_MAX);
}

}  // namespace
}  // namespace rise::sim
