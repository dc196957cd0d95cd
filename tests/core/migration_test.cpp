/**
 * @file
 * Tests for the non-static processor-tile mapping (paper section 3:
 * "The processor-tile assignment can be made non-static by allowing the
 * processor-tile mapping to be changed during a context-switch").
 */

#include <gtest/gtest.h>

#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "fault/invariant_checker.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

MolecularCacheParams
params()
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 2;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 2;
    p.resizePeriod = 1u << 30; // keep capacity fixed
    p.maxResizePeriod = 1u << 30;
    return p;
}

MemAccess
read(Addr addr)
{
    return {addr, Asid{0}, AccessType::Read};
}

void
expectDirectoryClean(const MolecularCache &cache)
{
    const auto rep = InvariantChecker::checkDirectory(cache);
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
}

TEST(Migration, SameClusterKeepsContents)
{
    MolecularCache cache(params());
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    cache.access(read(0x4000));
    EXPECT_TRUE(cache.access(read(0x4000)).hit);

    SimAccess{cache}.migrateApplication(Asid{0}, ClusterId{0}, 1); // tile 0 -> tile 1, same cluster
    EXPECT_EQ(cache.region(Asid{0}).homeTile(), TileId{1});
    EXPECT_EQ(cache.region(Asid{0}).homeCluster(), ClusterId{0});

    // The line is still cached — now in a remote molecule of the region,
    // served via Ulmo (lookup level 1).
    const AccessResult r = cache.access(read(0x4000));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 1u);
    expectDirectoryClean(cache);
}

TEST(Migration, CrossClusterRebuildsPartition)
{
    MolecularCache cache(params());
    cache.registerApplication(Asid{0}, 0.15, ClusterId{0}, 0, 2);
    cache.access(read(0x4000));
    const u32 size_before = cache.region(Asid{0}).size();

    SimAccess{cache}.migrateApplication(Asid{0}, ClusterId{1}, 0);
    expectDirectoryClean(cache);
    EXPECT_EQ(cache.region(Asid{0}).homeCluster(), ClusterId{1});
    // Goal and line multiple survive the rebuild.
    EXPECT_DOUBLE_EQ(cache.region(Asid{0}).resizeGoal, 0.15);
    EXPECT_EQ(cache.region(Asid{0}).lineMultiple(), 2u);
    EXPECT_EQ(cache.region(Asid{0}).size(), size_before);
    // Contents do not: the cluster changed.
    EXPECT_FALSE(cache.access(read(0x4000)).hit);
    // Old cluster's molecules were returned to its pool.
    EXPECT_EQ(cache.freeMoleculesInCluster(ClusterId{0}),
              params().tilesPerCluster * params().moleculesPerTile);
    expectDirectoryClean(cache);
}

TEST(Migration, CrossClusterWritesBackDirtyLines)
{
    MolecularCache cache(params());
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    cache.access({0x4000, Asid{0}, AccessType::Write});
    SimAccess{cache}.migrateApplication(Asid{0}, ClusterId{1}, 1);
    EXPECT_GE(cache.stats().forAsid(Asid{0}).writebacks, 1u);
    cache.access({0x4000, Asid{0}, AccessType::Write});
    expectDirectoryClean(cache);
}

TEST(MigrationDeath, UnknownAsid)
{
    MolecularCache cache(params());
    EXPECT_EXIT(SimAccess{cache}.migrateApplication(Asid{9}, ClusterId{0}, 0),
                ::testing::ExitedWithCode(1), "not registered");
}

TEST(MigrationDeath, BadDestination)
{
    MolecularCache cache(params());
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    EXPECT_EXIT(SimAccess{cache}.migrateApplication(Asid{0}, ClusterId{7}, 0),
                ::testing::ExitedWithCode(1), "cluster");
    EXPECT_EXIT(SimAccess{cache}.migrateApplication(Asid{0}, ClusterId{1}, 7),
                ::testing::ExitedWithCode(1), "tile");
}

} // namespace
} // namespace molcache
