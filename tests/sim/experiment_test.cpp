#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"
#include "workload/profiles.hpp"

namespace molcache {
namespace {

TEST(Experiment, TraditionalParamsMatchPaperSetup)
{
    const SetAssocParams p = traditionalParams(8_MiB, 8);
    EXPECT_EQ(p.sizeBytes, 8_MiB);
    EXPECT_EQ(p.associativity, 8u);
    EXPECT_EQ(p.lineSize, 64u);
    EXPECT_EQ(p.ports, 4u); // Table 3: traditional cache has 4 ports
    EXPECT_EQ(p.replacement, ReplPolicy::Lru);
    p.validate(); // must not fatal
}

TEST(Experiment, Fig5GeometryScalesTiles)
{
    const MolecularCacheParams p1 =
        fig5MolecularParams(1_MiB, PlacementPolicy::Randy);
    EXPECT_EQ(p1.totalSizeBytes(), 1_MiB);
    EXPECT_EQ(p1.tilesPerCluster, 4u);
    EXPECT_EQ(p1.clusters, 1u);
    EXPECT_EQ(p1.moleculesPerTile, 32u); // 256 KiB tiles of 8 KiB

    const MolecularCacheParams p8 =
        fig5MolecularParams(8_MiB, PlacementPolicy::Random);
    EXPECT_EQ(p8.moleculesPerTile, 256u); // 2 MiB tiles
    EXPECT_EQ(p8.placement, PlacementPolicy::Random);
}

TEST(Experiment, Table2GeometryIsPaperTable3)
{
    const MolecularCacheParams p =
        table2MolecularParams(PlacementPolicy::Randy);
    EXPECT_EQ(p.clusters, 3u);
    EXPECT_EQ(p.tilesPerCluster, 4u);
    EXPECT_EQ(p.tileSizeBytes(), 512_KiB);
    EXPECT_EQ(p.clusterSizeBytes(), 2_MiB);
    EXPECT_EQ(p.totalSizeBytes(), 6_MiB);
}

TEST(Experiment, RegisterApplicationsGroupsContiguously)
{
    MolecularCache cache(table2MolecularParams(PlacementPolicy::Randy));
    registerApplications(cache, 12, 0.25);
    // Apps 0-3 -> cluster 0, 4-7 -> cluster 1, 8-11 -> cluster 2,
    // one tile each (the paper's three groups of four).
    for (u32 i = 0; i < 12; ++i) {
        EXPECT_EQ(cache.region(Asid{static_cast<u16>(i)}).homeCluster(),
                  ClusterId{i / 4})
            << "asid " << i;
    }
    // Within a cluster every app has its own tile.
    for (u32 c = 0; c < 3; ++c) {
        std::set<TileId> tiles;
        for (u32 i = 0; i < 4; ++i)
            tiles.insert(cache.region(Asid{static_cast<u16>(c * 4 + i)})
                             .homeTile());
        EXPECT_EQ(tiles.size(), 4u) << "cluster " << c;
    }
}

TEST(Experiment, Table2MixSharesNoChunk)
{
    // The coherence directory's miss path is one chunk-mask update
    // because the paper's applications never touch each other's
    // addresses: no chunk gains a second holder cluster and no write
    // invalidates anything.  A workload that starts sharing fails here.
    MolecularCache cache(table2MolecularParams(PlacementPolicy::Randy));
    registerApplications(cache, 12, 0.25);
    runWorkload(mixed12Names(), cache,
                RunOptions{}.withReferences(200'000));
    EXPECT_EQ(cache.stats().global().accesses, 200'000u);
    EXPECT_FALSE(cache.directory().shared());
    EXPECT_EQ(cache.directory().stats().invalidationsSent, 0u);
}

TEST(Experiment, RunWorkloadEndToEnd)
{
    SetAssocCache cache(traditionalParams(1_MiB, 4));
    const GoalSet goals = GoalSet::uniform(0.1, 2);
    const SimResult r =
        runWorkload({"ammp", "mcf"}, cache,
                    RunOptions{}.withGoals(goals).withReferences(20000));
    EXPECT_EQ(r.accesses, 20000u);
    EXPECT_EQ(r.qos.apps.size(), 2u);
    EXPECT_EQ(r.qos.byAsid(Asid{0}).label, "ammp");
    EXPECT_EQ(r.qos.byAsid(Asid{1}).label, "mcf");
    // mcf misses far more than ammp on any 1MB cache.
    EXPECT_GT(r.qos.byAsid(Asid{1}).missRate, r.qos.byAsid(Asid{0}).missRate);
}

TEST(Experiment, DeriveGoalsFromSoloProfiling)
{
    const SetAssocParams ref = traditionalParams(1_MiB, 4);
    const GoalSet goals =
        deriveGoalsFromSolo({"ammp", "mcf"}, ref,
                            RunOptions{}.withReferences(100000),
                            /*slackFactor=*/1.5, /*minGoal=*/0.02);
    ASSERT_EQ(goals.size(), 2u);
    // ammp's solo rate (~0.005) is below the floor: clamped to minGoal.
    EXPECT_DOUBLE_EQ(*goals.goal(Asid{0}), 0.02);
    // mcf's solo rate (~0.67) picks up the slack factor.
    EXPECT_GT(*goals.goal(Asid{1}), 0.6);
    EXPECT_LE(*goals.goal(Asid{1}), 1.0);
}

TEST(ExperimentDeath, DeriveGoalsRejectsSubUnitySlack)
{
    EXPECT_EXIT(deriveGoalsFromSolo({"ammp"}, traditionalParams(1_MiB, 4),
                                    RunOptions{}, 0.5),
                ::testing::ExitedWithCode(1), "slack factor");
}

TEST(Experiment, PaperTraceLengthConstant)
{
    EXPECT_EQ(kPaperTraceLength, 3'900'000u);
}

TEST(ExperimentDeath, Fig5SizeMustSplitIntoTiles)
{
    EXPECT_EXIT(fig5MolecularParams(Bytes{100}, PlacementPolicy::Randy),
                ::testing::ExitedWithCode(1), "not divisible");
}

} // namespace
} // namespace molcache
