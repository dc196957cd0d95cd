/**
 * @file
 * Latency-accounting tests across the three cache models: the costs the
 * paper names (ASID pipeline stage, Ulmo hops on tile misses) must show
 * up in AMAT exactly as configured.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hpp"
#include "cache/way_partitioned.hpp"
#include "core/molecular_cache.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

MemAccess
read(Addr addr, u16 asid = 0)
{
    return {addr, Asid{asid}, AccessType::Read};
}

TEST(Latency, SetAssocHitAndMiss)
{
    SetAssocParams p;
    p.sizeBytes = 8_KiB;
    p.associativity = 2;
    p.hitLatencyCycles = Cycles{3};
    p.missPenaltyCycles = Cycles{100};
    SetAssocCache cache(p);
    EXPECT_EQ(cache.access(read(0x0)).latencyCycles, Cycles{103});
    EXPECT_EQ(cache.access(read(0x0)).latencyCycles, Cycles{3});
    EXPECT_EQ(cache.stats().forAsid(Asid{0}).latencyCycles, Cycles{106});
    EXPECT_DOUBLE_EQ(cache.stats().forAsid(Asid{0}).amat(), 53.0);
}

TEST(Latency, WayPartitionedHitAndMiss)
{
    WayPartitionedParams p;
    p.sizeBytes = 64_KiB;
    p.associativity = 8;
    p.hitLatencyCycles = Cycles{2};
    p.missPenaltyCycles = Cycles{50};
    WayPartitionedCache cache(p);
    cache.registerApplication(Asid{0}, 0.1);
    EXPECT_EQ(cache.access(read(0x0)).latencyCycles, Cycles{52});
    EXPECT_EQ(cache.access(read(0x0)).latencyCycles, Cycles{2});
}

TEST(Latency, MolecularAsidStageOnLocalHit)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 1;
    p.initialAllocation = InitialAllocation::Small;
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    p.asidStageCycles = Cycles{1};
    p.moleculeAccessCycles = Cycles{2};
    p.missPenaltyCycles = Cycles{100};
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1);
    // Miss: ASID stage + molecule + memory penalty.
    EXPECT_EQ(cache.access(read(0x0)).latencyCycles, Cycles{103});
    // Local hit: ASID stage + molecule access — the paper's extra cycle.
    EXPECT_EQ(cache.access(read(0x0)).latencyCycles, Cycles{3});
}

TEST(Latency, MolecularRemoteHitPaysUlmoHop)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 1;
    p.initialAllocation = InitialAllocation::Small;
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    p.initialMolecules = p.moleculesPerTile;
    p.asidStageCycles = Cycles{1};
    p.moleculeAccessCycles = Cycles{1};
    p.ulmoHopCycles = Cycles{5};
    MolecularCache cache(p);
    // ASID 1 takes all of tile 0, so ASID 0's initial allocation, also
    // entering through tile 0, spills onto tile 1: its lines are remote.
    cache.registerApplication(Asid{1}, 0.1, ClusterId{0}, 0, 1);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    ASSERT_EQ(cache.region(Asid{0}).byTile().count(TileId{0}), 0u);
    ASSERT_EQ(cache.region(Asid{0}).byTile().count(TileId{1}), 1u);
    cache.access(read(0x4000)); // fill on tile 1
    const AccessResult r = cache.access(read(0x4000));
    ASSERT_TRUE(r.hit);
    ASSERT_EQ(r.level, 1u);
    // home visit (1+1) + one remote tile (5 + 1 + 1).
    EXPECT_EQ(r.latencyCycles, Cycles{9});
}

TEST(Latency, AmatReflectsMissRate)
{
    SetAssocParams p;
    p.sizeBytes = 8_KiB;
    p.associativity = 2;
    SetAssocCache cache(p);
    for (int i = 0; i < 100; ++i)
        cache.access(read(0x0));
    // 1 miss (201 cycles) + 99 hits (1 cycle): AMAT ~= 3.
    EXPECT_NEAR(cache.stats().global().amat(), 3.0, 0.01);
}

} // namespace
} // namespace molcache
