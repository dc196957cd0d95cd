#include "stats/histogram.hpp"

#include <gtest/gtest.h>

namespace molcache {
namespace {

TEST(Log2Histogram, Buckets)
{
    Log2Histogram h(10);
    h.add(0); // bucket 0
    h.add(1); // (2^0..2^1) -> bucket 1
    h.add(2);
    h.add(3); // bucket 2
    h.add(1024);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Log2Histogram, OverflowClampsToLast)
{
    Log2Histogram h(4);
    h.add(1ull << 40);
    EXPECT_EQ(h.bucketCount(h.buckets() - 1), 1u);
}

} // namespace
} // namespace molcache
