#include "mem/filter.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"

namespace molcache {
namespace {

std::unique_ptr<AccessSource>
source(std::vector<MemAccess> v)
{
    return std::make_unique<VectorSource>(std::move(v));
}

MemAccess
read(Addr a, u16 asid = 0)
{
    return {a, Asid{asid}, AccessType::Read};
}

MemAccess
write(Addr a, u16 asid = 0)
{
    return {a, Asid{asid}, AccessType::Write};
}

L1Params
tinyL1()
{
    L1Params p;
    p.sizeBytes = 4_KiB; // 64 lines, 16 sets x 4 ways
    p.associativity = 4;
    p.lineSize = 64;
    return p;
}

TEST(L1Filter, ForwardsOnlyMisses)
{
    // Same line four times: one compulsory miss reaches L2.
    L1FilterSource f(source({read(0x100), read(0x100), read(0x120),
                             read(0x100)}),
                     tinyL1());
    auto a = f.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->addr, 0x100u);
    EXPECT_FALSE(f.next().has_value());
    EXPECT_EQ(f.consumed(), 4u);
    EXPECT_EQ(f.forwardedMisses(), 1u);
    EXPECT_DOUBLE_EQ(f.l1MissRate(), 0.25);
}

TEST(L1Filter, DistinctLinesAllMiss)
{
    L1FilterSource f(source({read(0x0), read(0x40), read(0x80)}), tinyL1());
    u64 n = 0;
    while (f.next())
        ++n;
    EXPECT_EQ(n, 3u);
    EXPECT_DOUBLE_EQ(f.l1MissRate(), 1.0);
}

TEST(L1Filter, WriteMissBecomesReadAllocate)
{
    L1FilterSource f(source({write(0x200)}), tinyL1());
    const auto a = f.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(a->isWrite()) << "demand fill reaches L2 as a read";
}

TEST(L1Filter, DirtyEvictionEmitsWriteback)
{
    // 16 sets: addresses 4KiB apart share set 0.  Fill 4 ways dirty,
    // then a fifth conflicting read displaces the LRU dirty line.
    const u64 span = 4 * 1024;
    std::vector<MemAccess> refs;
    for (u32 i = 0; i < 4; ++i)
        refs.push_back(write(i * span));
    refs.push_back(read(4 * span));
    L1FilterSource f(source(std::move(refs)), tinyL1());

    std::vector<MemAccess> out;
    while (auto a = f.next())
        out.push_back(*a);
    // 4 write-allocates + 1 demand read + 1 writeback of line 0.
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[4].addr, 4 * span);
    EXPECT_FALSE(out[4].isWrite());
    EXPECT_EQ(out[5].addr, 0u);
    EXPECT_TRUE(out[5].isWrite()) << "writeback reaches L2 as a write";
    EXPECT_EQ(f.forwardedWritebacks(), 1u);
}

TEST(L1Filter, PerAsidPrivateCaches)
{
    // The same address from two ASIDs misses twice: L1s are private.
    L1FilterSource f(source({read(0x100, 1), read(0x100, 2),
                             read(0x100, 1), read(0x100, 2)}),
                     tinyL1());
    u64 n = 0;
    while (f.next())
        ++n;
    EXPECT_EQ(n, 2u);
}

TEST(L1Filter, ReducesTrafficOnLocalWorkload)
{
    // A zipf-hot stream should be heavily filtered.
    std::vector<MemAccess> refs;
    Pcg32 rng(3);
    for (u32 i = 0; i < 20000; ++i)
        refs.push_back(read((rng.below(32)) * 64)); // 32 hot lines
    L1FilterSource f(source(std::move(refs)), tinyL1());
    u64 forwarded = 0;
    while (f.next())
        ++forwarded;
    EXPECT_LT(forwarded, 100u); // compulsory only
    EXPECT_LT(f.l1MissRate(), 0.01);
}

} // namespace
} // namespace molcache
