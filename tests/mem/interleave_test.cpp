#include "mem/interleave.hpp"

#include <gtest/gtest.h>

#include <map>

namespace molcache {
namespace {

std::unique_ptr<AccessSource>
constantSource(u16 asid, u64 n)
{
    std::vector<MemAccess> v(
        n, MemAccess{0x1000, Asid{asid}, AccessType::Read});
    return std::make_unique<VectorSource>(std::move(v));
}

std::map<Asid, u64>
drainCounts(AccessSource &src)
{
    std::map<Asid, u64> counts;
    while (auto a = src.next())
        ++counts[a->asid];
    return counts;
}

TEST(VectorSource, DrainsInOrder)
{
    std::vector<MemAccess> v = {{1, Asid{0}, AccessType::Read},
                                {2, Asid{0}, AccessType::Write}};
    VectorSource src(v);
    EXPECT_EQ(src.next()->addr, 1u);
    EXPECT_EQ(src.next()->addr, 2u);
    EXPECT_FALSE(src.next().has_value());
    EXPECT_FALSE(src.next().has_value()); // stays exhausted
}

TEST(Interleaver, RoundRobinAlternates)
{
    std::vector<std::unique_ptr<AccessSource>> sources;
    sources.push_back(constantSource(0, 3));
    sources.push_back(constantSource(1, 3));
    Interleaver mix(std::move(sources));
    std::vector<Asid> order;
    while (auto a = mix.next())
        order.push_back(a->asid);
    EXPECT_EQ(order, (std::vector<Asid>{Asid{0}, Asid{1}, Asid{0}, Asid{1},
                                    Asid{0}, Asid{1}}));
}

TEST(Interleaver, RoundRobinSkipsExhausted)
{
    std::vector<std::unique_ptr<AccessSource>> sources;
    sources.push_back(constantSource(0, 1));
    sources.push_back(constantSource(1, 4));
    Interleaver mix(std::move(sources));
    const auto counts = drainCounts(mix);
    EXPECT_EQ(counts.at(Asid{0}), 1u);
    EXPECT_EQ(counts.at(Asid{1}), 4u);
}

TEST(Interleaver, LimitStopsEarly)
{
    std::vector<std::unique_ptr<AccessSource>> sources;
    sources.push_back(constantSource(0, 100));
    Interleaver mix(std::move(sources), 10);
    u64 n = 0;
    while (mix.next())
        ++n;
    EXPECT_EQ(n, 10u);
    EXPECT_EQ(mix.produced(), 10u);
}

} // namespace
} // namespace molcache
