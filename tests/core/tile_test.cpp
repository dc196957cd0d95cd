#include "core/tile.hpp"

#include <gtest/gtest.h>

#include "contract/contract.hpp"

namespace molcache {
namespace {

Tile
makeTile()
{
    return Tile(TileId{2}, ClusterId{0}, MoleculeId{64},
                /*numMolecules=*/8, /*linesPerMol=*/128, /*lineSize=*/64);
}

TEST(Tile, Construction)
{
    const Tile t = makeTile();
    EXPECT_EQ(t.id(), TileId{2});
    EXPECT_EQ(t.cluster(), ClusterId{0});
    EXPECT_EQ(t.numMolecules(), 8u);
    EXPECT_EQ(t.firstMolecule(), MoleculeId{64});
    EXPECT_EQ(t.freeCount(), 8u);
    EXPECT_TRUE(t.owns(MoleculeId{64}));
    EXPECT_TRUE(t.owns(MoleculeId{71}));
    EXPECT_FALSE(t.owns(MoleculeId{72}));
    EXPECT_FALSE(t.owns(MoleculeId{63}));
}

TEST(Tile, AllocateUntilExhausted)
{
    Tile t = makeTile();
    for (u32 i = 0; i < 8; ++i) {
        const MoleculeId id = t.allocate(Asid{5});
        ASSERT_NE(id, kInvalidMolecule);
        EXPECT_TRUE(t.owns(id));
        EXPECT_EQ(t.molecule(id).configuredAsid(), Asid{5});
    }
    EXPECT_EQ(t.freeCount(), 0u);
    EXPECT_EQ(t.allocate(Asid{5}), kInvalidMolecule);
}

TEST(Tile, ReleaseReturnsToPool)
{
    Tile t = makeTile();
    const MoleculeId id = t.allocate(Asid{3});
    EXPECT_EQ(t.freeCount(), 7u);
    t.molecule(id).fill(0x40, true);
    EXPECT_EQ(t.release(id), 1u); // one dirty line dropped
    EXPECT_EQ(t.freeCount(), 8u);
    EXPECT_TRUE(t.molecule(id).isFree());
}

TEST(Tile, ReleaseThenReallocate)
{
    Tile t = makeTile();
    const MoleculeId a = t.allocate(Asid{1});
    t.release(a);
    const MoleculeId b = t.allocate(Asid{2});
    EXPECT_EQ(a, b); // the freed molecule is reused first
    EXPECT_EQ(t.molecule(b).configuredAsid(), Asid{2});
}

TEST(Tile, LineMajorSlotLayout)
{
    // The slot contract Tile::lineTags() shares with Molecule and the
    // access path's tile probe: line li of molecule id lives at
    // li * numMolecules() + (id - firstMolecule()).
    Tile t = makeTile();
    const MoleculeId a = t.allocate(Asid{1});
    const MoleculeId b = t.allocate(Asid{1});
    ASSERT_EQ(b - a, 1u); // neighbours in every row
    const u32 n = t.numMolecules();
    const u32 linesPerMol = 128;
    const Addr span = Addr{linesPerMol} * 64; // one tag step
    const auto slot = [&](MoleculeId id, u32 li) {
        return li * n + (id - t.firstMolecule());
    };

    // Molecule a: lines 0 and 5 (5 dirty), tag 3; molecule b: line 7.
    t.molecule(a).fill(3 * span + 0 * 64, false);
    t.molecule(a).fill(3 * span + 5 * 64, true);
    t.molecule(b).fill(9 * span + 7 * 64, false);

    // A valid slot's flag byte carries its tag's low 5 bits in bits
    // 3-7 (lineKeyOf): tag 3 -> 0x18, tag 9 -> 0x48.
    const Addr *tags = t.lineTags();
    const u8 *flags = t.lineFlags();
    EXPECT_EQ(tags[slot(a, 0)], 3u);
    EXPECT_EQ(flags[slot(a, 0)], 0x18 | kLineValid);
    EXPECT_EQ(tags[slot(a, 5)], 3u);
    EXPECT_EQ(flags[slot(a, 5)], 0x18 | kLineValid | kLineDirty);
    EXPECT_EQ(tags[slot(b, 7)], 9u);
    EXPECT_EQ(flags[slot(b, 7)], 0x48 | kLineValid);
    // A refill of a resident line keeps its key and merges dirty.
    EXPECT_FALSE(t.molecule(a).fill(3 * span + 5 * 64, false).has_value());
    EXPECT_EQ(flags[slot(a, 5)], 0x18 | kLineValid | kLineDirty);
    // The neighbour's slots in the same rows are untouched.
    for (const u32 li : {0u, 5u}) {
        EXPECT_EQ(tags[slot(b, li)], 0u);
        EXPECT_EQ(flags[slot(b, li)], 0u);
    }
    EXPECT_EQ(tags[slot(a, 7)], 0u);
    EXPECT_EQ(flags[slot(a, 7)], 0u);

    // Release leaves every slot of the molecule all-zero (an invalid
    // slot is always zero) and the neighbour's line in place.
    EXPECT_EQ(t.release(a), 1u);
    for (u32 li = 0; li < linesPerMol; ++li) {
        EXPECT_EQ(tags[slot(a, li)], 0u) << "line " << li;
        EXPECT_EQ(flags[slot(a, li)], 0u) << "line " << li;
    }
    EXPECT_EQ(tags[slot(b, 7)], 9u);
    EXPECT_EQ(flags[slot(b, 7)], 0x48 | kLineValid);
    EXPECT_TRUE(t.molecule(b).lookup(9 * span + 7 * 64));
}

// These deaths come from contracts, which a pure Release build
// compiles out (Contract.CompiledOutChecksDoNotEvaluate pins that).
#if MOLCACHE_CONTRACTS_ACTIVE

TEST(TileDeath, ForeignMolecule)
{
    Tile t = makeTile();
    EXPECT_DEATH(t.molecule(MoleculeId{5}), "not on tile");
}

TEST(TileDeath, DoubleRelease)
{
    Tile t = makeTile();
    const MoleculeId id = t.allocate(Asid{1});
    t.release(id);
    EXPECT_DEATH(t.release(id), "already-free");
}

#endif // MOLCACHE_CONTRACTS_ACTIVE

} // namespace
} // namespace molcache
