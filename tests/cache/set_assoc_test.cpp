#include "cache/set_assoc.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace molcache {
namespace {

SetAssocParams
smallCache(u32 assoc = 2)
{
    SetAssocParams p;
    p.sizeBytes = 8_KiB;
    p.associativity = assoc;
    p.lineSize = 64;
    return p;
}

MemAccess
read(Addr addr, u16 asid = 0)
{
    return {addr, Asid{asid}, AccessType::Read};
}

MemAccess
write(Addr addr, u16 asid = 0)
{
    return {addr, Asid{asid}, AccessType::Write};
}

TEST(SetAssoc, ColdMissThenHit)
{
    SetAssocCache cache(smallCache());
    EXPECT_FALSE(cache.access(read(0x1000)).hit);
    EXPECT_TRUE(cache.access(read(0x1000)).hit);
    EXPECT_TRUE(cache.access(read(0x1038)).hit); // same line
    EXPECT_FALSE(cache.access(read(0x1040)).hit); // next line
}

TEST(SetAssoc, GeometryDerivation)
{
    const SetAssocParams p = smallCache(4);
    EXPECT_EQ(p.numSets(), 32u);
    EXPECT_EQ(p.numLines(), 128u);
}

TEST(SetAssoc, LruEvictionWithinSet)
{
    // 2-way, 64 sets. Three lines mapping to set 0 force an eviction of
    // the least recently used.
    SetAssocCache cache(smallCache(2));
    const u32 set_span = 64 * 64; // lineSize * sets
    cache.access(read(0));                   // A
    cache.access(read(set_span));            // B
    cache.access(read(0));                   // touch A
    cache.access(read(2 * set_span));        // C evicts B
    EXPECT_TRUE(cache.access(read(0)).hit);  // A alive
    EXPECT_FALSE(cache.access(read(set_span)).hit); // B gone
}

TEST(Replacement, LruEvictsOldest)
{
    // 4-way, 32 sets: fill set 0, then each further line evicts the way
    // touched longest ago.
    SetAssocCache cache(smallCache(4));
    const u32 set_span = 64 * 32; // lineSize * sets
    for (Addr i = 0; i < 4; ++i)
        cache.access(read(i * set_span));    // A B C D
    cache.access(read(4 * set_span));        // E evicts A (inserted first)
    EXPECT_FALSE(cache.probe(0));
    cache.access(read(1 * set_span));        // refresh B
    cache.access(read(5 * set_span));        // F evicts C, now the oldest
    EXPECT_FALSE(cache.probe(2 * set_span));
    EXPECT_TRUE(cache.probe(1 * set_span));
    EXPECT_TRUE(cache.probe(3 * set_span));
    EXPECT_TRUE(cache.probe(4 * set_span));
    EXPECT_TRUE(cache.probe(5 * set_span));
}

TEST(Replacement, LruPerSetIndependent)
{
    // 2-way, 64 sets. Sets 0 and 1 fill in opposite way order with their
    // accesses interleaved; each set still evicts its own oldest way.
    SetAssocCache cache(smallCache(2));
    const u32 set_span = 64 * 64; // lineSize * sets
    const Addr set1 = 64;
    cache.access(read(0));                   // A (set 0, way 0)
    cache.access(read(set1));                // E (set 1, way 0)
    cache.access(read(set_span));            // B (set 0, way 1)
    cache.access(read(set1 + set_span));     // D (set 1, way 1)
    cache.access(read(0));                   // touch A
    cache.access(read(set1 + 2 * set_span)); // F evicts E (way 0)
    cache.access(read(2 * set_span));        // C evicts B (way 1)
    EXPECT_TRUE(cache.probe(0));             // A alive
    EXPECT_FALSE(cache.probe(set_span));     // B gone
    EXPECT_FALSE(cache.probe(set1));         // E gone
    EXPECT_TRUE(cache.probe(set1 + set_span)); // D alive
}

TEST(SetAssoc, ProbeDoesNotDisturbState)
{
    SetAssocCache cache(smallCache());
    cache.access(read(0x80));
    EXPECT_TRUE(cache.probe(0x80));
    EXPECT_FALSE(cache.probe(0x8000000));
    // probe must not have inserted anything.
    EXPECT_FALSE(cache.access(read(0x8000000)).hit);
}

TEST(SetAssoc, PerAsidStats)
{
    SetAssocCache cache(smallCache());
    cache.access(read(0x100, 1));
    cache.access(read(0x100, 1));
    cache.access(read(0x4000, 2));
    EXPECT_EQ(cache.stats().forAsid(Asid{1}).accesses, 2u);
    EXPECT_EQ(cache.stats().forAsid(Asid{1}).hits, 1u);
    EXPECT_EQ(cache.stats().forAsid(Asid{2}).misses, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().forAsid(Asid{1}).missRate(), 0.5);
}

TEST(SetAssoc, WritebackOnDirtyEviction)
{
    SetAssocCache cache(smallCache(1)); // direct mapped: easy conflicts
    const u32 set_span = 64 * 128;      // lineSize * sets (128 sets)
    cache.access(write(0));             // dirty line in set 0
    cache.access(read(set_span));       // evicts it
    EXPECT_EQ(cache.stats().global().writebacks, 1u);
    cache.access(read(2 * set_span));   // clean eviction
    EXPECT_EQ(cache.stats().global().writebacks, 1u);
}

TEST(SetAssoc, WriteHitMarksDirty)
{
    SetAssocCache cache(smallCache(1));
    const u32 set_span = 64 * 128;
    cache.access(read(0));
    cache.access(write(0)); // hit, marks dirty
    cache.access(read(set_span));
    EXPECT_EQ(cache.stats().global().writebacks, 1u);
}

TEST(SetAssoc, FlushInvalidatesEverything)
{
    SetAssocCache cache(smallCache());
    cache.access(read(0x100));
    cache.flush();
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_FALSE(cache.access(read(0x100)).hit);
}

TEST(SetAssoc, OccupancyTracksAsid)
{
    SetAssocCache cache(smallCache());
    for (u32 i = 0; i < 8; ++i)
        cache.access(read(i * 64, 3));
    EXPECT_EQ(cache.occupancy(Asid{3}), 8u);
    EXPECT_EQ(cache.occupancy(Asid{4}), 0u);
}

TEST(SetAssoc, EnergyAccounting)
{
    SetAssocParams p = smallCache();
    p.energyPerAccessNj = 0.5;
    SetAssocCache cache(p);
    cache.access(read(0));
    cache.access(read(0));
    EXPECT_DOUBLE_EQ(cache.totalEnergyNj(), 1.0);
    cache.resetStats();
    EXPECT_DOUBLE_EQ(cache.totalEnergyNj(), 0.0);
}

TEST(SetAssoc, NameDescribesGeometry)
{
    EXPECT_EQ(SetAssocCache(smallCache(1)).name(), "8KiB direct-mapped lru");
    EXPECT_EQ(SetAssocCache(smallCache(4)).name(), "8KiB 4-way lru");
}

TEST(SetAssocDeath, BadGeometry)
{
    SetAssocParams p = smallCache();
    p.lineSize = 48; // not a power of two
    EXPECT_EXIT(SetAssocCache cache(p), ::testing::ExitedWithCode(1),
                "power of two");
}

/** Property: a cache of N lines holds any N-line working set after one
 * pass (no spurious evictions), for every associativity. */
class FullCapacity : public ::testing::TestWithParam<u32>
{
};

TEST_P(FullCapacity, WorkingSetEqualToCapacityAllHitsSecondPass)
{
    SetAssocCache cache(smallCache(GetParam()));
    const u32 lines = cache.params().numLines();
    for (u32 i = 0; i < lines; ++i)
        cache.access(read(static_cast<Addr>(i) * 64));
    for (u32 i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(read(static_cast<Addr>(i) * 64)).hit)
            << "line " << i;
}

INSTANTIATE_TEST_SUITE_P(Ways, FullCapacity,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace molcache
