#include "core/region.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "contract/contract.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

Region
randyRegion(u32 initialRows = 4)
{
    return Region(Asid{1}, PlacementPolicy::Randy, /*lineMultiple=*/1,
                  TileId{0}, ClusterId{0},
                  /*moleculeSize=*/8_KiB, /*moleculesPerTile=*/64,
                  initialRows);
}

Region
randomRegion()
{
    return Region(Asid{1}, PlacementPolicy::Random, 1, TileId{0},
                  ClusterId{0}, 8_KiB, 64);
}

TEST(Region, InitialRowLayout)
{
    Region r = randyRegion(4);
    for (u32 m = 0; m < 8; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, /*initial=*/true);
    EXPECT_EQ(r.size(), 8u);
    EXPECT_EQ(r.rowMax(), 4u); // capped at initialRows
    for (const auto &row : r.rows())
        EXPECT_EQ(row.size(), 2u); // dealt round-robin
}

TEST(Region, RandomIsSingleRow)
{
    Region r = randomRegion();
    for (u32 m = 0; m < 6; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, true);
    EXPECT_EQ(r.rowMax(), 1u);
    EXPECT_EQ(r.rows()[0].size(), 6u);
}

TEST(Region, GrowthWidensHottestRow)
{
    Region r = randyRegion(2);
    r.addMolecule(MoleculeId{0}, TileId{0}, true); // row 0
    r.addMolecule(MoleculeId{1}, TileId{0}, true); // row 1
    // Heat up row 1.
    const Addr row1_addr = (8_KiB).value(); // (addr / 8KiB) % 2 == 1
    r.noteReplacement(MoleculeId{1}, row1_addr);
    r.noteReplacement(MoleculeId{1}, row1_addr);
    r.addMolecule(MoleculeId{2}, TileId{0}, /*initial=*/false);
    EXPECT_EQ(r.rows()[1].size(), 2u) << "hot row must receive the grant";
    EXPECT_EQ(r.rows()[0].size(), 1u);
}

TEST(Region, RowHashMatchesPaperFormula)
{
    Region r = randyRegion(4);
    for (u32 m = 0; m < 4; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, true);
    for (const Addr a : {0ull, 8192ull, 16384ull, 24576ull, 32768ull})
        EXPECT_EQ(r.rowOf(a),
                  RowIndex{static_cast<u32>((a / (8_KiB).value()) % 4)});
}

TEST(Region, ChooseFillRespectsRow)
{
    Region r = randyRegion(2);
    r.addMolecule(MoleculeId{10}, TileId{0}, true); // row 0
    r.addMolecule(MoleculeId{20}, TileId{0}, true); // row 1
    r.addMolecule(MoleculeId{21}, TileId{0}, false); // widens a row (both cold: row 0)
    Pcg32 rng(1);
    // Addresses in row 1 must only be filled into row 1's molecule.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.chooseFillMolecule((8_KiB).value(), rng), MoleculeId{20});
}

TEST(Region, ChooseFillRandomCoversRegion)
{
    Region r = randomRegion();
    for (u32 m = 0; m < 8; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, true);
    Pcg32 rng(2);
    std::set<MoleculeId> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.chooseFillMolecule(0x1234000, rng));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Region, WithdrawalPrefersColdMolecule)
{
    Region r = randomRegion();
    r.addMolecule(MoleculeId{0}, TileId{0}, true);
    r.addMolecule(MoleculeId{1}, TileId{0}, true);
    r.noteReplacement(MoleculeId{0}, 0); // molecule 0 is hot
    EXPECT_EQ(r.pickWithdrawal(), MoleculeId{1});
}

TEST(Region, WithdrawalSparesWidth1RowsWhileWideExist)
{
    Region r = randyRegion(2);
    r.addMolecule(MoleculeId{0}, TileId{0}, true); // row 0
    r.addMolecule(MoleculeId{1}, TileId{0}, true); // row 1
    // Widen row 0 (make it hot so growth targets it).
    r.noteReplacement(MoleculeId{0}, 0);
    r.addMolecule(MoleculeId{2}, TileId{0}, false); // joins row 0
    // Row 1 is coldest but width 1; withdrawal must come from row 0.
    r.closeInterval();
    const MoleculeId victim = r.pickWithdrawal();
    EXPECT_TRUE(victim == MoleculeId{0} || victim == MoleculeId{2})
        << victim;
}

TEST(Region, RemoveMoleculeShrinksRows)
{
    Region r = randyRegion(2);
    r.addMolecule(MoleculeId{0}, TileId{0}, true);
    r.addMolecule(MoleculeId{1}, TileId{0}, true);
    EXPECT_EQ(r.rowMax(), 2u);
    r.removeMolecule(MoleculeId{1});
    EXPECT_EQ(r.rowMax(), 1u); // emptied row deleted
    EXPECT_EQ(r.size(), 1u);
    EXPECT_FALSE(r.contains(MoleculeId{1}));
    EXPECT_TRUE(r.contains(MoleculeId{0}));
}

TEST(Region, ByTileTracksPlacement)
{
    Region r = randomRegion();
    r.addMolecule(MoleculeId{0}, TileId{0}, true);
    r.addMolecule(MoleculeId{1}, TileId{2}, false);
    r.addMolecule(MoleculeId{2}, TileId{2}, false);
    ASSERT_EQ(r.byTile().size(), 2u);
    EXPECT_EQ(r.byTile().at(TileId{0}).size(), 1u);
    EXPECT_EQ(r.byTile().at(TileId{2}).size(), 2u);
    r.removeMolecule(MoleculeId{1});
    r.removeMolecule(MoleculeId{2});
    EXPECT_EQ(r.byTile().count(TileId{2}), 0u); // empty tile entry erased
}

TEST(Region, MembershipMaskMarksEachMoleculesTileOffset)
{
    // 12 molecules per tile: two mask words per entry, the second half
    // used.  Tile 1 holds ids 12-23.
    Region r(Asid{1}, PlacementPolicy::Random, 1, TileId{1}, ClusterId{0},
             8_KiB, /*moleculesPerTile=*/12);
    r.addMolecule(MoleculeId{23}, TileId{1}, true); // offset 11
    r.addMolecule(MoleculeId{12}, TileId{1}, true); // offset 0
    r.addMolecule(MoleculeId{4}, TileId{0}, false); // offset 4
    const TilePlacement &placed = r.byTile();
    ASSERT_EQ(placed.membershipWords(), 2u);
    ASSERT_EQ(placed.size(), 2u);
    const auto mask = [&placed](TileId tile) {
        for (const TilePlacement::Entry &e : placed)
            if (e.tile == tile)
                return std::vector<u64>(placed.membership(e),
                                        placed.membership(e) + 2);
        return std::vector<u64>{};
    };
    EXPECT_EQ(mask(TileId{0}), (std::vector<u64>{0xffull << 32, 0}));
    EXPECT_EQ(mask(TileId{1}), (std::vector<u64>{0xff, 0xffull << 24}));

    // Removal clears the byte; the entry inserted before tile 1's
    // moves its mask along with it, and an emptied entry drops its own.
    r.removeMolecule(MoleculeId{23});
    EXPECT_EQ(mask(TileId{1}), (std::vector<u64>{0xff, 0}));
    r.removeMolecule(MoleculeId{4});
    ASSERT_EQ(placed.size(), 1u);
    EXPECT_EQ(mask(TileId{1}), (std::vector<u64>{0xff, 0}));
}

TEST(Region, IntervalCounters)
{
    Region r = randomRegion();
    r.addMolecule(MoleculeId{0}, TileId{0}, true);
    r.noteAccess(true);
    r.noteAccess(false);
    r.noteAccess(false);
    r.noteReplacement(MoleculeId{0}, 0);
    EXPECT_EQ(r.intervalAccesses(), 3u);
    EXPECT_EQ(r.intervalMisses(), 2u);
    EXPECT_DOUBLE_EQ(r.intervalMissRate(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(r.intervalReplacementRate(), 1.0 / 3.0);
    r.closeInterval();
    EXPECT_EQ(r.intervalAccesses(), 0u);
    EXPECT_DOUBLE_EQ(r.intervalReplacementRate(), 0.0);
    // Lifetime counters survive the interval close.
    EXPECT_EQ(r.accesses(), 3u);
    EXPECT_EQ(r.hits(), 1u);
}

// These deaths come from contracts, which a pure Release build
// compiles out (Contract.CompiledOutChecksDoNotEvaluate pins that).
#if MOLCACHE_CONTRACTS_ACTIVE

TEST(RegionDeath, DoubleAdd)
{
    Region r = randomRegion();
    r.addMolecule(MoleculeId{0}, TileId{0}, true);
    EXPECT_DEATH(r.addMolecule(MoleculeId{0}, TileId{0}, true),
                 "already in region");
}

TEST(RegionDeath, RemoveUnknown)
{
    Region r = randomRegion();
    EXPECT_DEATH(r.removeMolecule(MoleculeId{99}), "not in region");
}

TEST(RegionDeath, FillIntoEmptyRegion)
{
    Region r = randomRegion();
    Pcg32 rng(1);
    EXPECT_DEATH(r.chooseFillMolecule(0, rng), "empty region");
}

#endif // MOLCACHE_CONTRACTS_ACTIVE

/** Property: Randy fill choices always come from the address's row. */
class RandyRowProperty : public ::testing::TestWithParam<u32>
{
};

TEST_P(RandyRowProperty, FillAlwaysInRow)
{
    const u32 rows = GetParam();
    Region r = randyRegion(rows);
    for (u32 m = 0; m < rows * 3; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, true);
    Pcg32 rng(7);
    std::map<MoleculeId, u32> mol_row;
    for (u32 row = 0; row < r.rowMax(); ++row)
        for (const MoleculeId m : r.rows()[row])
            mol_row[m] = row;
    for (int i = 0; i < 1000; ++i) {
        const Addr addr = static_cast<Addr>(rng.below(1u << 20)) * 64;
        const MoleculeId pick = r.chooseFillMolecule(addr, rng);
        EXPECT_EQ(mol_row.at(pick), r.rowOf(addr).value());
    }
}

INSTANTIATE_TEST_SUITE_P(RowCounts, RandyRowProperty,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace molcache
