#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "fault/invariant_checker.hpp"
#include "util/random.hpp"
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

// A one-cluster, three-tile Random region whose molecules 0, 3 and 6
// sit on tiles 0, 1 and 2 (the home tile is 0), each holding one known
// line.  Latencies: 1-cycle ASID stage and molecule access, 5-cycle hop.
class Placement : public ::testing::Test
{
  protected:
    static MolecularCacheParams
    params()
    {
        MolecularCacheParams p;
        p.moleculeSize = 8_KiB;
        p.moleculesPerTile = 3;
        p.tilesPerCluster = 3;
        p.clusters = 1;
        p.placement = PlacementPolicy::Random;
        p.initialAllocation = InitialAllocation::Small;
        p.initialMolecules = 3;
        // Resize on every access, but Algorithm 1 never decides: only the
        // re-acquisition of decommissioned capacity grants molecules.
        p.resizeScheme = ResizeScheme::PerAppAdaptive;
        p.resizePeriod = 1;
        p.minResizePeriod = 1;
        p.maxResizePeriod = 1u << 30;
        p.minIntervalSample = 1ull << 40;
        p.asidStageCycles = Cycles{1};
        p.moleculeAccessCycles = Cycles{1};
        p.ulmoHopCycles = Cycles{5};
        return p;
    }

    void
    SetUp() override
    {
        cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
        // Molecules 0-2 on tile 0.  Fence two of tile 1's free molecules,
        // then two of the region's: the re-grant finds tile 0 empty, takes
        // tile 1's last free molecule (3) and then tile 2's first (6).
        for (const u32 id : {4u, 5u, 1u, 2u})
            sim.decommissionMolecule(MoleculeId{id});
        cache.access(read(0x0));
        const Region &region = cache.region(Asid{0});
        ASSERT_EQ(region.byTile().size(), 3u);
        ASSERT_EQ(region.byTile().at(TileId{0}),
                  std::vector<MoleculeId>{MoleculeId{0}});
        ASSERT_EQ(region.byTile().at(TileId{1}),
                  std::vector<MoleculeId>{MoleculeId{3}});
        ASSERT_EQ(region.byTile().at(TileId{2}),
                  std::vector<MoleculeId>{MoleculeId{6}});

        // Cache distinct lines until each molecule holds one of them.
        for (Addr addr = 0x40; lineIn.size() < 3 && addr < 0x2000;
             addr += 0x40) {
            cache.access(read(addr));
            for (const u32 id : {0u, 3u, 6u})
                if (cache.molecule(MoleculeId{id}).lookup(addr))
                    lineIn.emplace(id, addr);
        }
        ASSERT_EQ(lineIn.size(), 3u);
    }

    // Accesses `addr` into `r`; returns the molecules it probed.
    long long
    probesOf(Addr addr, AccessResult &r)
    {
        const auto total = [this] {
            return std::llround(cache.averageProbesPerAccess() *
                                static_cast<double>(
                                    cache.stats().global().accesses));
        };
        const auto before = total();
        r = cache.access(read(addr));
        return total() - before;
    }

    MolecularCache cache{params()};
    SimAccess sim{cache};
    std::map<u32, Addr> lineIn; // molecule id -> a line it holds
};

TEST_F(Placement, HomeTileFirst)
{
    AccessResult r;
    // Home tile: the ASID stage and one molecule access, level 0.
    EXPECT_EQ(probesOf(lineIn.at(0), r), 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 0u);
    EXPECT_EQ(r.latencyCycles, Cycles{2});
    // First remote tile: plus one Ulmo hop (5 + 1 + 1), level 1.
    EXPECT_EQ(probesOf(lineIn.at(3), r), 2);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 1u);
    EXPECT_EQ(r.latencyCycles, Cycles{9});
    // Second remote tile: tile 1 is visited on the way.
    EXPECT_EQ(probesOf(lineIn.at(6), r), 3);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 1u);
    EXPECT_EQ(r.latencyCycles, Cycles{16});
}

TEST_F(Placement, TileWithoutRegionMoleculesYieldsEmptyHome)
{
    // No molecule left on the home tile: the entry visit probes nothing
    // and every hit is remote.
    sim.decommissionMolecule(MoleculeId{0});
    AccessResult r;
    EXPECT_EQ(probesOf(lineIn.at(3), r), 1);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 1u);
    EXPECT_EQ(r.latencyCycles, Cycles{9});
    // The re-grant after that access put molecule 7 on tile 2, so the
    // hit there follows tile 1's probe and two on tile 2.
    ASSERT_EQ(cache.region(Asid{0}).byTile().at(TileId{2}).size(), 2u);
    EXPECT_EQ(probesOf(lineIn.at(6), r), 3);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 1u);
}

TEST_F(Placement, EmptyRegionYieldsEmptyPlan)
{
    // No molecule left at all: nothing is probed and the access misses.
    for (const u32 id : {0u, 3u, 6u, 7u, 8u})
        sim.decommissionMolecule(MoleculeId{id});
    ASSERT_TRUE(cache.region(Asid{0}).empty());
    AccessResult r;
    EXPECT_EQ(probesOf(lineIn.at(6), r), 0);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.level, 2u);
}

/** True if a molecule of @p asid's region holds @p addr. */
bool
holds(const MolecularCache &cache, Asid asid, Addr addr)
{
    for (const auto &[tile, mols] : cache.region(asid).byTile())
        for (const MoleculeId id : mols)
            if (cache.molecule(id).lookup(addr))
                return true;
    return false;
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
    EXPECT_TRUE(holds(cache, Asid{0}, 0x3000));
    EXPECT_TRUE(holds(cache, Asid{1}, 0x3000));
    // A write from cluster 0 invalidates cluster 1's copy.
    EXPECT_TRUE(cache.access(write(0x3000, 0)).hit);
    EXPECT_TRUE(holds(cache, Asid{0}, 0x3000));
    EXPECT_FALSE(holds(cache, Asid{1}, 0x3000));
    EXPECT_FALSE(cache.access(read(0x3000, 1)).hit);
    EXPECT_EQ(cache.directory().stats().invalidationsSent, 1u);
    // Cluster 1 read a clean copy: dropping it wrote nothing back.
    EXPECT_EQ(cache.stats().forAsid(Asid{1}).writebacks, 0u);
}

TEST(MolecularCache, FirstSharedFillTurnsOnTheSnoop)
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

    // Disjoint windows, a third of the lines dirty: no chunk has two
    // holders, so a write snoops nobody.
    const Addr window1 = 1ull << 40;
    for (Addr a = 0; a < 96; ++a) {
        cache.access(a % 3 == 0 ? write(a * 64, 0) : read(a * 64, 0));
        cache.access(a % 3 == 0 ? write(window1 + a * 64, 1)
                                : read(window1 + a * 64, 1));
    }
    ASSERT_FALSE(cache.directory().shared());
    expectDirectoryClean();
    const u64 fills = cache.directory().stats().fills;

    // Cluster 1 reads a clean line cluster 0 holds: its chunk now names
    // both clusters, and both keep their copies.
    const Addr shared = 64; // a % 3 != 0: clean in cluster 0
    cache.access(read(shared, 1));
    EXPECT_TRUE(cache.directory().shared());
    EXPECT_EQ(cache.directory().stats().fills, fills + 1);
    expectDirectoryClean();
    EXPECT_TRUE(holds(cache, Asid{0}, shared));
    EXPECT_TRUE(holds(cache, Asid{1}, shared));

    // A write hit in cluster 1 snoops cluster 0, which drops only that
    // line: its dirty line 0 in the same chunk stays, unwritten.
    EXPECT_TRUE(cache.access(write(shared, 1)).hit);
    EXPECT_EQ(cache.directory().stats().invalidationsSent, 1u);
    EXPECT_FALSE(holds(cache, Asid{0}, shared));
    EXPECT_TRUE(holds(cache, Asid{1}, shared));
    EXPECT_TRUE(holds(cache, Asid{0}, 0));
    EXPECT_EQ(cache.stats().forAsid(Asid{0}).writebacks, 0u);
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

/** FNV-1a of the eight bytes of @p v, folded into @p h. */
u64
fnv1a(u64 h, u64 v)
{
    for (u32 i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Three applications, one per cluster, read and write the same 400
 * lines, spread over four 64 KiB chunks, 30 % of them writes; then
 * they mostly read a hot 40.  The resize period is short enough that
 * the first phase grants molecules and the second withdraws them.  @return a digest of every
 * access result (hit, level, latency) and the final per-ASID
 * writebacks: what cross-cluster invalidation does to the cache. */
u64
sharedAddressDigest(PlacementPolicy placement)
{
    MolecularCacheParams p = smallParams();
    p.clusters = 3;
    p.placement = placement;
    p.resizePeriod = 500;
    p.minIntervalSample = 50;
    MolecularCache cache(p);
    for (u16 a = 0; a < 3; ++a)
        cache.registerApplication(Asid{a}, 0.2, ClusterId{a}, 0, 1);
    Pcg32 rng(7);
    u64 h = 0xcbf29ce484222325ull;
    for (u32 i = 0; i < 40000; ++i) {
        const u16 asid = static_cast<u16>(rng.below(3));
        const bool wide = i < 20000;
        const Addr addr = static_cast<Addr>(rng.below(wide ? 400 : 40)) * 640;
        const AccessResult r = cache.access(rng.below(100) < (wide ? 30 : 2)
                                                ? write(addr, asid)
                                                : read(addr, asid));
        h = fnv1a(h, r.hit);
        h = fnv1a(h, r.level);
        h = fnv1a(h, r.latencyCycles.value());
    }
    for (u16 a = 0; a < 3; ++a)
        h = fnv1a(h, cache.stats().forAsid(Asid{a}).writebacks);
    EXPECT_GT(cache.directory().stats().invalidationsSent, 0u);
    EXPECT_GT(cache.resizer().granted(), 0u);
    EXPECT_GT(cache.resizer().withdrawn(), 0u);
    const auto rep = InvariantChecker::checkDirectory(cache);
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
    return h;
}

TEST(MolecularCache, SharedAddressDigestIsPinned)
{
    // Captured with the exact per-line directory, before the chunk
    // masks became the only one: snooping every cluster a chunk names
    // invalidates the same copies.
    EXPECT_EQ(sharedAddressDigest(PlacementPolicy::Random),
              0x22d28169ca31f3b4ull);
    EXPECT_EQ(sharedAddressDigest(PlacementPolicy::Randy),
              0x7d54101c1e3d83c9ull);
    EXPECT_EQ(sharedAddressDigest(PlacementPolicy::LruDirect),
              0x38e28ad108dcdc8eull);
}

TEST(MolecularCache, RemoteWriteDropsTheWholeRegionLine)
{
    // A write from cluster 1 invalidates cluster 0's copy of 0x1000,
    // and with it the rest of its two-line region line: cluster 0's
    // refill then brings the group back whole into one molecule,
    // whichever one Random placement picks.
    for (u64 seed = 0; seed < 200; ++seed) {
        MolecularCacheParams p = smallParams();
        p.tilesPerCluster = 1;
        p.initialMolecules = 4;
        p.placement = PlacementPolicy::Random;
        p.seed = seed;
        p.resizePeriod = 1u << 30;
        p.maxResizePeriod = 1u << 30;
        MolecularCache cache(p);
        cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 2);
        cache.registerApplication(Asid{1}, 0.1, ClusterId{1}, 0, 2);
        cache.access(read(0x1000, 0));
        cache.access(write(0x1000, 1));
        cache.access(read(0x1000, 0));
        const auto rep = InvariantChecker::checkDirectory(cache);
        EXPECT_TRUE(rep.ok()) << "seed " << seed << ": "
                              << rep.violations.front();
    }
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
