#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/invariant_checker.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

MolecularCacheParams
smallParams()
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8; // 64 KiB tiles
    p.tilesPerCluster = 2;
    p.clusters = 2;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 2;
    p.resizePeriod = 1000;
    p.minResizePeriod = 100;
    p.minIntervalSample = 100;
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

TEST(MolecularCache, GeometryDerivation)
{
    const MolecularCacheParams p = smallParams();
    EXPECT_EQ(p.totalTiles(), 4u);
    EXPECT_EQ(p.totalMolecules(), 32u);
    EXPECT_EQ(p.tileSizeBytes(), 64_KiB);
    EXPECT_EQ(p.clusterSizeBytes(), 128_KiB);
    EXPECT_EQ(p.totalSizeBytes(), 256_KiB);
    EXPECT_EQ(p.linesPerMolecule(), 128u);
}

TEST(MolecularCache, RegistrationAllocatesInitialRegion)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{1}, 0.1);
    EXPECT_TRUE(cache.hasApplication(Asid{1}));
    EXPECT_EQ(cache.region(Asid{1}).size(), 2u);
    EXPECT_EQ(cache.freeMolecules(), 30u);
}

TEST(MolecularCache, HalfTileInitialAllocation)
{
    MolecularCacheParams p = smallParams();
    p.initialAllocation = InitialAllocation::HalfTile;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1);
    EXPECT_EQ(cache.region(Asid{0}).size(), 4u); // 8 per tile / 2
}

TEST(MolecularCache, DefaultPlacementSpreadsClusters)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    cache.registerApplication(Asid{1}, 0.1);
    cache.registerApplication(Asid{2}, 0.1);
    EXPECT_EQ(cache.region(Asid{0}).homeCluster(), ClusterId{0});
    EXPECT_EQ(cache.region(Asid{1}).homeCluster(), ClusterId{1});
    EXPECT_EQ(cache.region(Asid{2}).homeCluster(), ClusterId{0});
    EXPECT_NE(cache.region(Asid{0}).homeTile(), cache.region(Asid{2}).homeTile());
}

TEST(MolecularCache, MissThenHit)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    const AccessResult miss = cache.access(read(0x1000));
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.level, 2u);
    const AccessResult hit = cache.access(read(0x1000));
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.level, 0u);
}

TEST(MolecularCache, AutoRegistersUnknownAsid)
{
    MolecularCache cache(smallParams());
    cache.access(read(0x1000, 9));
    EXPECT_TRUE(cache.hasApplication(Asid{9}));
    EXPECT_DOUBLE_EQ(cache.region(Asid{9}).resizeGoal,
                     cache.params().defaultMissRateGoal);
}

TEST(MolecularCache, AsidIsolation)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    cache.registerApplication(Asid{1}, 0.1);
    cache.access(read(0x1000, 0));
    // Same address from another ASID must not hit app 0's copy.
    EXPECT_FALSE(cache.access(read(0x1000, 1)).hit);
    // And both now hold private copies.
    EXPECT_TRUE(cache.access(read(0x1000, 0)).hit);
    EXPECT_TRUE(cache.access(read(0x1000, 1)).hit);
}

TEST(MolecularCache, RemoteTileHitViaUlmo)
{
    MolecularCacheParams p = smallParams();
    p.initialAllocation = InitialAllocation::FullTile;
    MolecularCache cache(p);
    // Two apps on the same cluster: app 0 fills its whole home tile, so
    // growth must draw from the other tile via Ulmo.
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    // Touch more lines than the home tile holds to force remote grants.
    // Home tile: 8 molecules = 1024 lines. Resizing needs miss pressure.
    u64 remote_hits = 0;
    for (u32 pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 3000; ++a)
            if (cache.access(read(a * 64)).level == 1)
                ++remote_hits;
    const auto &region = cache.region(Asid{0});
    EXPECT_GT(region.byTile().size(), 1u)
        << "region never grew past its home tile";
    EXPECT_GT(remote_hits, 0u);
}

TEST(MolecularCache, WritebackOnDirtyReplacement)
{
    MolecularCacheParams p = smallParams();
    p.resizePeriod = 1u << 30; // effectively disable resizing
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1);
    // 2 molecules = 256 lines; overflow them with dirty lines.
    for (Addr a = 0; a < 512; ++a)
        cache.access(write(a * 64));
    EXPECT_GT(cache.stats().global().writebacks, 0u);
}

TEST(MolecularCache, LineMultipleFetchesNeighbours)
{
    MolecularCacheParams p = smallParams();
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, /*lineMultiple=*/2);
    EXPECT_FALSE(cache.access(read(0x1000)).hit);
    // The 128B unit [0x1000, 0x1080) was fetched together.
    EXPECT_TRUE(cache.access(read(0x1040)).hit);
    EXPECT_FALSE(cache.access(read(0x1080)).hit); // next unit
}

TEST(MolecularCache, LineMultipleAlignsDown)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, /*lineMultiple=*/4);
    EXPECT_FALSE(cache.access(read(0x10c0)).hit); // last line of its unit
    EXPECT_TRUE(cache.access(read(0x1000)).hit);  // unit base was fetched
    EXPECT_TRUE(cache.access(read(0x1040)).hit);
    EXPECT_TRUE(cache.access(read(0x1080)).hit);
}

TEST(MolecularCache, SharedMoleculeServesAllAsids)
{
    MolecularCacheParams p = smallParams();
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    // Both apps enter through tile 0 of cluster 0.
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    cache.registerApplication(Asid{2}, 0.1, ClusterId{0}, 0, 1);
    cache.access(read(0x2000, 0)); // app 0 caches the line
    const MoleculeId holder = [&] {
        for (const auto &[tile, mols] : cache.region(Asid{0}).byTile())
            for (const MoleculeId m : mols)
                if (cache.molecule(m).lookup(0x2000))
                    return m;
        return kInvalidMolecule;
    }();
    ASSERT_NE(holder, kInvalidMolecule);
    SimAccess{cache}.setSharedMolecule(holder, true);
    // The shared hit services app 2 without filling its own region...
    EXPECT_TRUE(cache.access(read(0x2000, 2)).hit);
    SimAccess{cache}.setSharedMolecule(holder, false);
    // ...so once unshared, app 2 no longer sees the line.
    EXPECT_FALSE(cache.access(read(0x2000, 2)).hit);
}

TEST(MolecularCache, CrossClusterInvalidationOnSharedAddress)
{
    MolecularCacheParams p = smallParams();
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1); // cluster 0
    cache.registerApplication(Asid{1}, 0.1, ClusterId{1}, 0, 1); // cluster 1
    // Both threads of a logically-shared address space touch one line.
    cache.access(read(0x3000, 0));
    cache.access(read(0x3000, 1));
    EXPECT_EQ(cache.directory().holderCount(LineAddr{0x3000}), 2u);
    // A write from cluster 0 invalidates cluster 1's copy.
    cache.access(write(0x3000, 0));
    EXPECT_EQ(cache.directory().holderCount(LineAddr{0x3000}), 1u);
    EXPECT_FALSE(cache.access(read(0x3000, 1)).hit);
    EXPECT_GT(cache.directory().stats().invalidationsSent, 0u);
}

TEST(MolecularCache, FirstSharedFillMaterialisesTheDirectory)
{
    MolecularCacheParams p = smallParams();
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    cache.registerApplication(Asid{1}, 0.1, ClusterId{1}, 0, 1);
    const auto expectDirectoryClean = [&cache] {
        const auto rep = InvariantChecker::checkDirectory(cache);
        EXPECT_TRUE(rep.ok()) << rep.violations.front();
    };

    // Disjoint windows, a third of the lines dirty: the directory only
    // tracks chunk holders.
    const Addr window1 = 1ull << 40;
    for (Addr a = 0; a < 96; ++a) {
        cache.access(a % 3 == 0 ? write(a * 64, 0) : read(a * 64, 0));
        cache.access(a % 3 == 0 ? write(window1 + a * 64, 1)
                                : read(window1 + a * 64, 1));
    }
    ASSERT_TRUE(cache.directory().coarse());
    expectDirectoryClean();
    const u64 fills = cache.directory().stats().fills;

    // Cluster 1 reads a clean line cluster 0 holds: the first shared
    // chunk builds the per-line table from the resident lines.
    const Addr shared = 64; // a % 3 != 0: clean in cluster 0
    cache.access(read(shared, 1));
    EXPECT_FALSE(cache.directory().coarse());
    EXPECT_EQ(cache.directory().stats().fills, fills + 1);
    EXPECT_EQ(cache.directory().stats().downgrades, 0u);
    expectDirectoryClean();
    EXPECT_EQ(cache.directory().holderCount(LineAddr{shared}), 2u);
    EXPECT_TRUE(cache.directory().isModified(LineAddr{0}));
    EXPECT_FALSE(cache.directory().isModified(LineAddr{shared}));

    // A write hit in cluster 1 invalidates cluster 0's copy.
    EXPECT_TRUE(cache.access(write(shared, 1)).hit);
    EXPECT_EQ(cache.directory().stats().invalidationsSent, 1u);
    EXPECT_EQ(cache.directory().holderCount(LineAddr{shared}), 1u);
    EXPECT_TRUE(cache.directory().isHeld(LineAddr{shared}, ClusterId{1}));
    expectDirectoryClean();
    EXPECT_FALSE(cache.access(read(shared, 0)).hit);
    expectDirectoryClean();
}

TEST(MolecularCache, NoInvalidationsWithoutSharing)
{
    // Disjoint address spaces: no coherence traffic at all (the
    // paper's workloads run in this regime).
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    cache.registerApplication(Asid{1}, 0.1, ClusterId{1}, 0, 1);
    for (Addr a = 0; a < 200; ++a) {
        cache.access(write(a * 64, 0));
        cache.access(write((a * 64) | (1ull << 40), 1));
    }
    EXPECT_EQ(cache.directory().stats().invalidationsSent, 0u);
}

TEST(MolecularCache, EnergyAccountingMonotone)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    EXPECT_DOUBLE_EQ(cache.totalEnergyNj(), 0.0);
    cache.access(read(0x0));
    const double after_one = cache.totalEnergyNj();
    EXPECT_GT(after_one, 0.0);
    cache.access(read(0x0));
    EXPECT_GT(cache.totalEnergyNj(), after_one);
    EXPECT_GT(cache.worstCaseAccessEnergyNj(),
              cache.averageAccessEnergyNj());
}

TEST(MolecularCache, UnregisterFreesMolecules)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    cache.access(write(0x1000, 0));
    const u32 free_before = cache.freeMolecules();
    cache.unregisterApplication(Asid{0});
    EXPECT_FALSE(cache.hasApplication(Asid{0}));
    EXPECT_GT(cache.freeMolecules(), free_before);
    EXPECT_EQ(cache.freeMolecules(), cache.params().totalMolecules());
}

TEST(MolecularCache, ResizeGrowsUnderMissPressure)
{
    MolecularCacheParams p = smallParams();
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    const u32 initial = cache.region(Asid{0}).size();
    // Random traffic over 96 KiB — more than the 16 KiB initial region,
    // less than the cluster — should trigger growth.
    Pcg32 rng(3);
    for (u32 i = 0; i < 60000; ++i)
        cache.access(read(static_cast<Addr>(rng.below(1536)) * 64));
    EXPECT_GT(cache.region(Asid{0}).size(), initial);
    EXPECT_GT(cache.resizeCycles(), 0u);
}

TEST(MolecularCache, WithdrawalWhenOvershooting)
{
    MolecularCacheParams p = smallParams();
    p.initialAllocation = InitialAllocation::FullTile;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, /*goal=*/0.5, ClusterId{0}, 0, 1);
    // Tiny working set, goal 50%: the region must shrink.
    for (u32 i = 0; i < 50000; ++i)
        cache.access(read((i % 16) * 64));
    EXPECT_LT(cache.region(Asid{0}).size(), 8u);
}

TEST(MolecularCache, StatsPerAsid)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    cache.registerApplication(Asid{1}, 0.1);
    cache.access(read(0x0, 0));
    cache.access(read(0x0, 0));
    cache.access(read(0x40, 1));
    EXPECT_EQ(cache.stats().forAsid(Asid{0}).accesses, 2u);
    EXPECT_EQ(cache.stats().forAsid(Asid{0}).hits, 1u);
    EXPECT_EQ(cache.stats().forAsid(Asid{1}).misses, 1u);
}

TEST(MolecularCache, HitPerMoleculeDefinition)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    cache.access(read(0x0));
    cache.access(read(0x0));
    cache.access(read(0x0));
    // 2 hits / 3 accesses / 2 molecules.
    EXPECT_NEAR(cache.hitPerMoleculeOf(Asid{0}), (2.0 / 3.0) / 2.0, 1e-12);
}

TEST(MolecularCache, NameMentionsGeometry)
{
    MolecularCache cache(smallParams());
    const std::string n = cache.name();
    EXPECT_NE(n.find("molecular"), std::string::npos);
    EXPECT_NE(n.find("256KiB"), std::string::npos);
    EXPECT_NE(n.find("randy"), std::string::npos);
}

/**
 * ASID recycling must not replay the predecessor's way-memo table: the
 * successor region restarts its generation counter and is handed the
 * same molecule ids, so a stale table could pass the generation check
 * and predict lines the successor never filled.  Re-registering drops
 * the table (an invalidation) and the successor then runs exactly like
 * the same tenant in a fresh cache — results and memo counters alike.
 */
TEST(MolecularCache, RecycledAsidStartsWithAFreshWayMemo)
{
    MolecularCacheParams p = smallParams();
    p.placement = PlacementPolicy::LruDirect; // no RNG: replayable fills
    p.resizePeriod = 1u << 30;                // no resize in the run
    p.maxResizePeriod = 1u << 30;
    std::vector<MemAccess> trace;
    u64 x = 88172645463325252ull;
    for (u32 i = 0; i < 6000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        trace.push_back(read((x % 512) * 64, 1));
    }

    MolecularCache recycled(p);
    recycled.registerApplication(Asid{1}, 0.1);
    for (const MemAccess &a : trace)
        recycled.access(a);
    recycled.unregisterApplication(Asid{1});
    recycled.retireApplicationStats(Asid{1});
    recycled.registerApplication(Asid{1}, 0.1);
    const u64 invalidations = recycled.wayMemoInvalidations();
    const u64 memoHits = recycled.wayMemoHits();
    const u64 mispredicts = recycled.wayMemoMispredicts();

    MolecularCache fresh(p);
    fresh.registerApplication(Asid{1}, 0.1);
    for (const MemAccess &a : trace) {
        const AccessResult want = fresh.access(a);
        const AccessResult got = recycled.access(a);
        ASSERT_EQ(got.hit, want.hit);
        ASSERT_EQ(got.level, want.level);
        ASSERT_EQ(got.latencyCycles, want.latencyCycles);
    }
    EXPECT_GT(recycled.wayMemoInvalidations(), invalidations);
    EXPECT_EQ(recycled.wayMemoInvalidations() - invalidations,
              fresh.wayMemoInvalidations());
    EXPECT_GT(fresh.wayMemoHits(), 0u);
    EXPECT_EQ(recycled.wayMemoHits() - memoHits, fresh.wayMemoHits());
    EXPECT_EQ(recycled.wayMemoMispredicts() - mispredicts,
              fresh.wayMemoMispredicts());
    EXPECT_EQ(recycled.stats().forAsid(Asid{1}).hits,
              fresh.stats().forAsid(Asid{1}).hits);
}

TEST(MolecularCacheDeath, DoubleRegistration)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    EXPECT_EXIT(cache.registerApplication(Asid{0}, 0.2),
                ::testing::ExitedWithCode(1), "already registered");
}

TEST(MolecularCacheDeath, BadPlacement)
{
    MolecularCache cache(smallParams());
    EXPECT_EXIT(cache.registerApplication(Asid{0}, 0.1, ClusterId{9}, 0, 1),
                ::testing::ExitedWithCode(1), "cluster");
    EXPECT_EXIT(cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 9, 1),
                ::testing::ExitedWithCode(1), "tile");
    EXPECT_EXIT(cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 3),
                ::testing::ExitedWithCode(1), "line multiple");
}

TEST(MolecularCacheDeath, DefaultGoalOutOfRange)
{
    // Accepted, such a goal would fail only later: at the first access by
    // an unregistered ASID, or as a BadSpec on every goal-0 service attach.
    MolecularCacheParams p = smallParams();
    p.defaultMissRateGoal = 1.5;
    EXPECT_EXIT(MolecularCache{p}, ::testing::ExitedWithCode(1),
                "defaultMissRateGoal");
}

/** Property: with either placement policy, a working set that fits the
 * initial region entirely hits after one pass. */
class WarmFitProperty : public ::testing::TestWithParam<PlacementPolicy>
{
};

TEST_P(WarmFitProperty, SecondPassAllHits)
{
    MolecularCacheParams p = smallParams();
    p.placement = GetParam();
    p.resizePeriod = 1u << 30; // no resizing: capacity stays 2 molecules
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1);
    // 2 molecules = 256 lines; use 128 distinct lines, conflict-free
    // within a molecule (one per index), so both policies must hold them.
    for (Addr a = 0; a < 128; ++a)
        cache.access(read(a * 64));
    u32 hits = 0;
    for (Addr a = 0; a < 128; ++a)
        hits += cache.access(read(a * 64)).hit ? 1 : 0;
    // Random placement can duplicate a line across molecules only on
    // refetch; with distinct indices there is exactly one slot per
    // molecule pair — collisions across the 2 molecules are possible for
    // Random (two lines with the same index map to the same 2 slots).
    // 128 distinct indices over 128 lines: no index repeats, so all hit.
    EXPECT_EQ(hits, 128u);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, WarmFitProperty,
                         ::testing::Values(PlacementPolicy::Random,
                                           PlacementPolicy::Randy));

} // namespace
} // namespace molcache
