#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "cache/set_assoc.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

std::unique_ptr<AccessSource>
repeatSource(Addr addr, u64 n)
{
    std::vector<MemAccess> v(n, MemAccess{addr, Asid{0}, AccessType::Read});
    return std::make_unique<VectorSource>(std::move(v));
}

SetAssocParams
tinyCache()
{
    SetAssocParams p;
    p.sizeBytes = 8_KiB;
    p.associativity = 2;
    return p;
}

TEST(Simulator, DrainsSourceAndCounts)
{
    auto src = repeatSource(0x1000, 10);
    SetAssocCache cache(tinyCache());
    const SimResult r = Simulator::run(*src, cache);
    EXPECT_EQ(r.accesses, 10u);
    EXPECT_EQ(r.misses, 1u);
    EXPECT_EQ(r.hits, 9u);
    EXPECT_EQ(r.localHits, 9u);
    EXPECT_EQ(r.remoteHits, 0u);
    EXPECT_EQ(r.cacheName, cache.name());
}

TEST(Simulator, WarmupResetsStats)
{
    auto src = repeatSource(0x1000, 10);
    SetAssocCache cache(tinyCache());
    const SimResult r =
        Simulator::run(*src, cache, RunOptions{}.withWarmup(5));
    // The cold miss happened during warmup; measured window is all hits.
    EXPECT_EQ(r.accesses, 5u);
    EXPECT_EQ(r.misses, 0u);
}

TEST(Simulator, LabelMapHelper)
{
    const auto labels = labelMap({"a", "b"});
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_EQ(labels.at(Asid{0}), "a");
    EXPECT_EQ(labels.at(Asid{1}), "b");
}

TEST(Simulator, EnergyPropagated)
{
    SetAssocParams p = tinyCache();
    p.energyPerAccessNj = 2.0;
    SetAssocCache cache(p);
    auto src = repeatSource(0x1000, 4);
    const SimResult r = Simulator::run(*src, cache);
    EXPECT_DOUBLE_EQ(r.totalEnergyNj, 8.0);
    EXPECT_DOUBLE_EQ(r.avgEnergyPerAccessNj, 2.0);
}

} // namespace
} // namespace molcache
