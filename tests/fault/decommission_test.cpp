/**
 * @file
 * End-to-end tests of the fault model through the molecular cache:
 * decommissioning, parity scrubbing of transient flips, tile outages,
 * resizer-driven recovery, the invariant audit and SimResult surfacing.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "fault/invariant_checker.hpp"
#include "mem/interleave.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

MolecularCacheParams
smallParams()
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 1;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 2;
    p.resizePeriod = 200;
    p.minResizePeriod = 50;
    p.maxResizePeriod = 2000;
    p.minIntervalSample = 50;
    return p;
}

void
expectClean(const MolecularCache &cache)
{
    const auto rep = InvariantChecker::check(cache);
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
    EXPECT_GT(rep.checksRun, 0u);
    const auto dir = InvariantChecker::checkDirectory(cache);
    EXPECT_TRUE(dir.ok()) << dir.violations.front();
}

Addr
addrFor(Asid asid, u32 n)
{
    return (static_cast<Addr>(asid.value()) << 34) +
           static_cast<Addr>(n) * 64;
}

void
warm(MolecularCache &cache, Asid asid, u32 refs, u32 footprint)
{
    Pcg32 rng(99);
    for (u32 i = 0; i < refs; ++i) {
        cache.access({addrFor(asid, rng.below(footprint)), asid,
                      rng.chance(0.25) ? AccessType::Write
                                       : AccessType::Read});
    }
}

TEST(Decommission, FreeMoleculeLeavesPoolForever)
{
    MolecularCache cache(smallParams());
    const u32 total = cache.params().totalMolecules();
    ASSERT_EQ(cache.freeMolecules(), total);

    EXPECT_TRUE(SimAccess{cache}.decommissionMolecule(MoleculeId{0}));
    EXPECT_EQ(cache.freeMolecules(), total - 1);
    EXPECT_EQ(cache.decommissionedMolecules(), 1u);
    EXPECT_EQ(cache.faultStats().moleculesDecommissioned, 1u);
    EXPECT_TRUE(cache.molecule(MoleculeId{0}).decommissioned());

    // Grab every remaining molecule of the home tile: the fenced one must
    // never be handed out.
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    warm(cache, Asid{0}, 4000, 2048);
    EXPECT_FALSE(cache.region(Asid{0}).contains(MoleculeId{0}));
    expectClean(cache);
}

TEST(Decommission, SecondCallIsNoop)
{
    MolecularCache cache(smallParams());
    EXPECT_TRUE(SimAccess{cache}.decommissionMolecule(MoleculeId{3}));
    EXPECT_FALSE(SimAccess{cache}.decommissionMolecule(MoleculeId{3}));
    EXPECT_EQ(cache.faultStats().moleculesDecommissioned, 1u);
}

TEST(Decommission, OwnedMoleculeDrainsAndRegionRecovers)
{
    MolecularCache cache(smallParams());
    // A mid-range goal keeps the region around half the cluster, so free
    // molecules remain for the recovery re-grant to draw from.
    cache.registerApplication(Asid{0}, 0.3);
    warm(cache, Asid{0}, 3000, 1024);
    ASSERT_GT(cache.freeMolecules(), 0u);

    const Region &region = cache.region(Asid{0});
    const u32 before = region.size();
    ASSERT_GT(before, 0u);
    const MoleculeId victim = region.rows()[0][0];

    EXPECT_TRUE(SimAccess{cache}.decommissionMolecule(victim));
    EXPECT_EQ(region.size(), before - 1);
    EXPECT_FALSE(region.contains(victim));
    EXPECT_TRUE(cache.molecule(victim).decommissioned());
    EXPECT_EQ(cache.molecule(victim).validLines(), 0u);
    EXPECT_EQ(region.moleculesLost, 1u);
    EXPECT_TRUE(region.recovering);
    EXPECT_EQ(cache.ulmo(ClusterId{0}).decommissions(), 1u);
    expectClean(cache);

    // The next resize epochs re-acquire the lost capacity from the pool.
    warm(cache, Asid{0}, 3000, 1024);
    EXPECT_EQ(region.pendingReacquire, 0u);
    EXPECT_GT(cache.resizer().recoveryGrants(), 0u);
    expectClean(cache);
}

TEST(Decommission, HardFaultsCountUpToThreshold)
{
    MolecularCacheParams p = smallParams();
    p.hardFaultThreshold = 3;
    MolecularCache cache(p);

    SimAccess{cache}.injectHardFault(MoleculeId{5});
    SimAccess{cache}.injectHardFault(MoleculeId{5});
    EXPECT_FALSE(cache.molecule(MoleculeId{5}).decommissioned());
    EXPECT_EQ(cache.molecule(MoleculeId{5}).hardFaults(), 2u);

    SimAccess{cache}.injectHardFault(MoleculeId{5});
    EXPECT_TRUE(cache.molecule(MoleculeId{5}).decommissioned());
    EXPECT_EQ(cache.faultStats().hardFaultEvents, 3u);
    EXPECT_EQ(cache.faultStats().moleculesDecommissioned, 1u);

    // Further detections on a fenced molecule are counted but harmless.
    SimAccess{cache}.injectHardFault(MoleculeId{5});
    EXPECT_EQ(cache.faultStats().hardFaultEvents, 4u);
    EXPECT_EQ(cache.faultStats().moleculesDecommissioned, 1u);
}

TEST(TransientFlip, DetectedOnNextProbeAndReadAsMiss)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    const Addr addr = addrFor(Asid{0}, 7);
    cache.access({addr, Asid{0}, AccessType::Write}); // fill, dirty
    ASSERT_TRUE(cache.access({addr, Asid{0}, AccessType::Read}).hit);

    // Poison the slot in every molecule of the region (only one of them
    // actually holds the line; flips into invalid slots are harmless).
    const u32 index = static_cast<u32>(addr / cache.params().lineSize) %
                      cache.params().linesPerMolecule();
    for (const auto &row : cache.region(Asid{0}).rows())
        for (const MoleculeId id : row)
            SimAccess{cache}.injectTransientFlip(id, index);

    const AccessResult r = cache.access({addr, Asid{0}, AccessType::Read});
    EXPECT_FALSE(r.hit); // parity caught the corruption: treated as a miss
    EXPECT_EQ(cache.faultStats().transientFlipsDetected, 1u);
    EXPECT_EQ(cache.faultStats().dirtyLinesLost, 1u); // corrupt, dropped

    // The refill is clean and hits again.
    EXPECT_TRUE(cache.access({addr, Asid{0}, AccessType::Read}).hit);
    expectClean(cache);
}

/**
 * A flip on the very line the way-memo predicts for a home-tile hit:
 * the prediction must not read the corrupt slot as a hit, the parity
 * check must catch and scrub it exactly as the full walk does, and the
 * first flip fuses memoization off for the rest of the run — a poisoned
 * slot earlier in the schedule must always be met by the in-order walk.
 */
TEST(TransientFlip, MemoPredictedLineIsScrubbedAndFusesMemoOff)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    const Addr addr = addrFor(Asid{0}, 7);
    cache.access({addr, Asid{0}, AccessType::Write}); // fill, dirty
    ASSERT_TRUE(cache.access({addr, Asid{0}, AccessType::Read}).hit);
    ASSERT_TRUE(cache.access({addr, Asid{0}, AccessType::Read}).hit);
    ASSERT_EQ(cache.wayMemoHits(), 1u) << "the memo predicts the line";

    MoleculeId holder = kInvalidMolecule;
    for (const auto &[tile, mols] : cache.region(Asid{0}).byTile())
        for (const MoleculeId id : mols)
            if (cache.molecule(id).lookup(addr))
                holder = id;
    ASSERT_NE(holder, kInvalidMolecule);
    const u32 index = static_cast<u32>(addr / cache.params().lineSize) %
                      cache.params().linesPerMolecule();
    SimAccess{cache}.injectTransientFlip(holder, index);

    const AccessResult r = cache.access({addr, Asid{0}, AccessType::Read});
    EXPECT_FALSE(r.hit); // parity caught the corruption: treated as a miss
    EXPECT_EQ(r.level, 2u);
    EXPECT_EQ(cache.faultStats().transientFlipsDetected, 1u);
    EXPECT_EQ(cache.faultStats().dirtyLinesLost, 1u);

    // The refill hits again, but never through the memo any more.
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(cache.access({addr, Asid{0}, AccessType::Read}).hit);
    EXPECT_EQ(cache.wayMemoHits(), 1u);
    EXPECT_EQ(cache.wayMemoMispredicts(), 0u);
    expectClean(cache);
}

/**
 * Poisoned slots holding other lines, on either side of the hit in the
 * home schedule: the in-order walk scrubs the one it meets before the
 * hit (dropping that line from the directory) and still returns the
 * hit, and never touches a slot after the hit.
 */
TEST(TransientFlip, PoisonBeforeHitIsScrubbedInScheduleOrder)
{
    MolecularCacheParams p = smallParams();
    p.initialMolecules = 4;
    p.resizePeriod = 1'000'000; // no resize moves the region mid-test
    p.maxResizePeriod = 1'000'000;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    const Region &region = cache.region(Asid{0});

    // Many tags at one line index spread over the home molecules; each
    // molecule ends up holding at most one of them.
    const u32 lines = cache.params().linesPerMolecule();
    const u32 index = 5;
    std::vector<Addr> addrs;
    for (u32 k = 0; k < 32; ++k)
        addrs.push_back(addrFor(Asid{0}, index + k * lines));
    for (const Addr a : addrs)
        cache.access({a, Asid{0}, AccessType::Read});

    // Holders in home-schedule order (the region's own home-tile
    // molecules in grant order).
    std::vector<std::pair<MoleculeId, Addr>> holders;
    for (const MoleculeId id : region.byTile().at(region.homeTile()))
        for (const Addr a : addrs)
            if (cache.molecule(id).lookup(a))
                holders.emplace_back(id, a);
    ASSERT_GE(holders.size(), 3u);
    const auto [before, lost] = holders[0];
    const auto [hitMol, hitLine] = holders[1];
    const auto [after, kept] = holders[2];
    ASSERT_TRUE(cache.molecule(before).lookup(lost));
    const size_t copies = cache.directory().entries();

    SimAccess{cache}.injectTransientFlip(before, index);
    AccessResult r = cache.access({hitLine, Asid{0}, AccessType::Read});
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 0u);
    EXPECT_EQ(cache.faultStats().transientFlipsDetected, 1u);
    EXPECT_FALSE(cache.molecule(before).lookup(lost));
    // The scrub sent the directory an eviction notice for it.
    EXPECT_EQ(cache.directory().entries(), copies - 1);
    EXPECT_TRUE(cache.molecule(hitMol).lookup(hitLine));

    SimAccess{cache}.injectTransientFlip(after, index);
    r = cache.access({hitLine, Asid{0}, AccessType::Read});
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(cache.faultStats().transientFlipsDetected, 1u);
    // Still latent: the walk stopped at the hit.
    EXPECT_EQ(cache.molecule(after).poisonedLines(), 1u);
    EXPECT_TRUE(cache.molecule(after).lookup(kept));
    expectClean(cache);
}

/**
 * A flip on one line of a region line (line multiple 2): the scrub
 * drops the whole group and writes its dirty sibling back, so the
 * refill brings the group back whole into one molecule instead of
 * leaving the sibling behind in another (paper section 3.2: the region
 * line is the unit of allocation).  Under Randy the address's row is
 * two molecules wide, so the refill has somewhere else to land.
 */
class ScrubRegionLine : public ::testing::TestWithParam<PlacementPolicy>
{
};

TEST_P(ScrubRegionLine, RefillKeepsTheGroupInOneMolecule)
{
    MolecularCacheParams p = smallParams();
    p.placement = GetParam();
    p.moleculesPerTile = 16;
    p.initialMolecules = 16; // Randy: 8 rows of width 2
    p.resizePeriod = 1'000'000;
    p.maxResizePeriod = 1'000'000;
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0,
                              /*lineMultiple=*/2);
    for (const auto &row : cache.region(Asid{0}).rows())
        ASSERT_GE(row.size(), 2u);

    const auto holders = [&cache](Addr addr) {
        std::vector<MoleculeId> out;
        for (const auto &[tile, mols] : cache.region(Asid{0}).byTile())
            for (const MoleculeId id : mols)
                if (cache.molecule(id).lookup(addr))
                    out.push_back(id);
        return out;
    };
    const u32 lines = cache.params().linesPerMolecule();
    // One group per round, each at its own slot pair: no fill ever
    // displaces an earlier group, so every count below is exact.
    for (u32 g = 0; g < lines / 2; ++g) {
        const Addr addr = addrFor(Asid{0}, 2 * g);
        const Addr sibling = addr + 64;
        cache.access({sibling, Asid{0}, AccessType::Write}); // group, dirty
        const std::vector<MoleculeId> held = holders(addr);
        ASSERT_EQ(held.size(), 1u);
        ASSERT_EQ(holders(sibling), held);
        SimAccess{cache}.injectTransientFlip(held.front(), 2 * g);

        const u64 writebacks = cache.stats().forAsid(Asid{0}).writebacks;
        const AccessResult r =
            cache.access({addr, Asid{0}, AccessType::Read});
        EXPECT_FALSE(r.hit);
        EXPECT_EQ(cache.faultStats().transientFlipsDetected, g + 1);
        EXPECT_EQ(cache.faultStats().dirtyLinesLost, 0u);
        EXPECT_EQ(cache.stats().forAsid(Asid{0}).writebacks,
                  writebacks + 1); // the intact dirty sibling
        const std::vector<MoleculeId> refilled = holders(addr);
        EXPECT_EQ(refilled.size(), 1u);
        EXPECT_EQ(holders(sibling), refilled);
        const auto dir = InvariantChecker::checkDirectory(cache);
        ASSERT_TRUE(dir.ok()) << "group " << g << ": "
                              << dir.violations.front();
    }
    expectClean(cache);
}

INSTANTIATE_TEST_SUITE_P(Placements, ScrubRegionLine,
                         ::testing::Values(PlacementPolicy::Random,
                                           PlacementPolicy::Randy));

TEST(TileOutage, FencesWholeTileAndRegionMigratesCapacity)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1); // home tile 0
    warm(cache, Asid{0}, 2000, 1024);
    ASSERT_GT(cache.region(Asid{0}).size(), 0u);

    SimAccess{cache}.injectTileOutage(TileId{0});
    EXPECT_EQ(cache.tile(TileId{0}).usableMolecules(), 0u);
    EXPECT_EQ(cache.decommissionedMolecules(),
              cache.params().moleculesPerTile);
    EXPECT_EQ(cache.faultStats().tileOutages, 1u);
    expectClean(cache);

    // The region rebuilds out of the cluster's surviving tile.
    warm(cache, Asid{0}, 4000, 1024);
    EXPECT_GT(cache.region(Asid{0}).size(), 0u);
    for (const auto &[tile, mols] : cache.region(Asid{0}).byTile())
        EXPECT_NE(tile, TileId{0});
    expectClean(cache);
}

TEST(FaultSchedule, EventsFireOnAccessTicks)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);

    FaultInjector inj;
    inj.schedule({3, FaultKind::HardFault, 14, 0});
    SimAccess{cache}.setFaultInjector(std::move(inj));

    cache.access({addrFor(Asid{0}, 0), Asid{0}, AccessType::Read});
    cache.access({addrFor(Asid{0}, 1), Asid{0}, AccessType::Read});
    EXPECT_FALSE(cache.molecule(MoleculeId{14}).decommissioned());
    cache.access({addrFor(Asid{0}, 2), Asid{0}, AccessType::Read});
    EXPECT_TRUE(cache.molecule(MoleculeId{14}).decommissioned());
    expectClean(cache);
}

TEST(InvariantAudit, AttachedHookRunsPeriodically)
{
    MolecularCache cache(smallParams());
    cache.registerApplication(Asid{0}, 0.1);
    const u64 before = InvariantChecker::auditsRun();
    InvariantChecker::attach(cache, 10);
    warm(cache, Asid{0}, 100, 256);
    EXPECT_GE(InvariantChecker::auditsRun(), before + 10);
}

TEST(SimResultFaults, CountersSurfaceThroughSimulator)
{
    MolecularCacheParams p = smallParams();
    MolecularCache cache(p);
    cache.registerApplication(Asid{0}, 0.1);

    FaultScheduleSpec spec;
    spec.hardFraction = 0.25;
    spec.windowStart = 100;
    spec.windowEnd = 2000;
    SimAccess{cache}.setFaultInjector(FaultInjector::fromSpec(
        spec, p.totalMolecules(), p.moleculesPerTile, p.linesPerMolecule()));

    std::vector<MemAccess> refs;
    Pcg32 rng(5);
    for (u32 i = 0; i < 5000; ++i)
        refs.push_back({addrFor(Asid{0}, rng.below(512)), Asid{0}, AccessType::Read});
    VectorSource source(refs);

    GoalSet goals;
    goals.set(Asid{0}, 0.1);
    const SimResult result =
        Simulator::run(source, cache, RunOptions{}.withGoals(goals));

    EXPECT_EQ(result.moleculesDecommissioned, p.totalMolecules() / 4);
    // Only hard faults were scheduled: one event per distinct victim.
    EXPECT_EQ(result.faultEventsApplied, p.totalMolecules() / 4);
    expectClean(cache);
}

} // namespace
} // namespace molcache
