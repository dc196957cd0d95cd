#include "noc/topology.hpp"

#include <gtest/gtest.h>

namespace molcache {
namespace {

TEST(Noc, SelfMessagesAreFree)
{
    NocModel noc(4);
    EXPECT_EQ(noc.hopCount(2, 2), 0u);
    EXPECT_EQ(noc.latencyCycles(2, 2), 0u);
}

TEST(Noc, RingTakesTheShortWay)
{
    NocModel noc(6);
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(0, 3), 3u);
    EXPECT_EQ(noc.hopCount(0, 5), 1u); // wrap-around
    EXPECT_EQ(noc.hopCount(1, 5), 2u);
    EXPECT_EQ(noc.diameter(), 3u);
}

TEST(Noc, SymmetricDistances)
{
    NocModel noc(7);
    for (u32 a = 0; a < 7; ++a)
        for (u32 b = 0; b < 7; ++b)
            EXPECT_EQ(noc.hopCount(a, b), noc.hopCount(b, a));
}

TEST(Noc, CostsScaleWithHops)
{
    NocModel noc(6);
    EXPECT_EQ(noc.latencyCycles(0, 3), 3 * kNocCyclesPerHop);
    EXPECT_DOUBLE_EQ(noc.messageEnergyNj(0, 3), 3 * kNocEnergyPerHopNj);
}

TEST(Noc, StatsAccumulate)
{
    NocModel noc(4);
    EXPECT_EQ(noc.sendMessage(0, 2), 4u); // 2 hops x 2 cycles
    EXPECT_EQ(noc.sendMessage(0, 1), 2u);
    EXPECT_EQ(noc.stats().messages, 2u);
    EXPECT_EQ(noc.stats().hops, 3u);
    EXPECT_EQ(noc.stats().cycles, 6u);
    EXPECT_DOUBLE_EQ(noc.stats().energyNj, 3 * kNocEnergyPerHopNj);
    noc.resetStats();
    EXPECT_EQ(noc.stats().messages, 0u);
}

TEST(Noc, SingleClusterDegenerate)
{
    NocModel noc(1);
    EXPECT_EQ(noc.diameter(), 0u);
    EXPECT_EQ(noc.sendMessage(0, 0), 0u);
}

} // namespace
} // namespace molcache
