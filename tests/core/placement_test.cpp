#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace molcache {
namespace {

Region
makeRegion(PlacementPolicy policy)
{
    Region r(Asid{1}, policy, 1, TileId{0}, ClusterId{0}, 8_KiB, 4);
    r.addMolecule(MoleculeId{0}, TileId{0}, true);
    r.addMolecule(MoleculeId{1}, TileId{0}, true);
    r.addMolecule(MoleculeId{2}, TileId{1}, false);
    r.addMolecule(MoleculeId{3}, TileId{2}, false);
    return r;
}

TEST(Placement, HomeTileFirst)
{
    const Region r = makeRegion(PlacementPolicy::Random);
    const LookupPlan plan = planLookup(r, TileId{0});
    EXPECT_EQ(plan.home.tile, TileId{0});
    EXPECT_EQ(plan.home.molecules.size(), 2u);
    ASSERT_EQ(plan.remote.size(), 2u);
    EXPECT_EQ(plan.remote[0].tile, TileId{1});
    EXPECT_EQ(plan.remote[1].tile, TileId{2});
    EXPECT_EQ(plan.totalProbes(), 4u);
}

TEST(Placement, RequestFromRemoteTileSwapsRoles)
{
    const Region r = makeRegion(PlacementPolicy::Random);
    const LookupPlan plan = planLookup(r, TileId{1});
    EXPECT_EQ(plan.home.tile, TileId{1});
    EXPECT_EQ(plan.home.molecules.size(), 1u);
    EXPECT_EQ(plan.remote.size(), 2u); // tiles 0 and 2
}

TEST(Placement, EmptyRegionYieldsEmptyPlan)
{
    const Region r(Asid{1}, PlacementPolicy::Random, 1, TileId{0},
                   ClusterId{0}, 8_KiB);
    const LookupPlan plan = planLookup(r, TileId{0});
    EXPECT_EQ(plan.totalProbes(), 0u);
    EXPECT_TRUE(plan.remote.empty());
}

TEST(Placement, TileWithoutRegionMoleculesYieldsEmptyHome)
{
    const Region r = makeRegion(PlacementPolicy::Random);
    const LookupPlan plan = planLookup(r, TileId{7});
    EXPECT_TRUE(plan.home.molecules.empty());
    EXPECT_EQ(plan.remote.size(), 3u);
    EXPECT_EQ(plan.totalProbes(), 4u);
}

} // namespace
} // namespace molcache
