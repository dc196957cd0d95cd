#include "core/ulmo.hpp"

#include <gtest/gtest.h>

#include "contract/contract.hpp"

namespace molcache {
namespace {

TEST(Ulmo, Construction)
{
    CoherenceDirectory dir(2);
    Ulmo ulmo(ClusterId{1}, {TileId{4}, TileId{5}, TileId{6}, TileId{7}},
              dir);
    EXPECT_EQ(ulmo.cluster(), ClusterId{1});
    EXPECT_EQ(ulmo.tiles().size(), 4u);
    EXPECT_TRUE(ulmo.managesTile(TileId{4}));
    EXPECT_TRUE(ulmo.managesTile(TileId{7}));
    EXPECT_FALSE(ulmo.managesTile(TileId{3}));
    EXPECT_FALSE(ulmo.managesTile(TileId{8}));
}

TEST(Ulmo, SharedDirectoryReference)
{
    CoherenceDirectory dir(2);
    Ulmo a(ClusterId{0}, {TileId{0}, TileId{1}}, dir);
    Ulmo b(ClusterId{1}, {TileId{2}, TileId{3}}, dir);
    // Both Ulmos front the same directory: a fill seen through one is
    // visible through the other.
    a.directory().noteFill(LineAddr{0x1000}, ClusterId{0}, false);
    EXPECT_TRUE(b.directory().isHeld(LineAddr{0x1000}, ClusterId{0}));
    EXPECT_EQ(&a.directory(), &b.directory());
}

TEST(Ulmo, StatCounters)
{
    CoherenceDirectory dir(1);
    Ulmo ulmo(ClusterId{0}, {TileId{0}}, dir);
    ulmo.noteTileMiss();
    ulmo.noteTileMiss();
    ulmo.noteRemoteProbes(5);
    ulmo.noteRemoteProbes(3);
    ulmo.noteRemoteHit();
    ulmo.noteDonation();
    ulmo.noteInvalidation();
    EXPECT_EQ(ulmo.tileMisses(), 2u);
    EXPECT_EQ(ulmo.remoteProbes(), 8u);
    EXPECT_EQ(ulmo.remoteHits(), 1u);
    EXPECT_EQ(ulmo.donations(), 1u);
    EXPECT_EQ(ulmo.invalidationsApplied(), 1u);
}

// These deaths come from contracts, which a pure Release build
// compiles out (Contract.CompiledOutChecksDoNotEvaluate pins that).
#if MOLCACHE_CONTRACTS_ACTIVE

TEST(UlmoDeath, NoTiles)
{
    CoherenceDirectory dir(1);
    EXPECT_DEATH(Ulmo(ClusterId{0}, {}, dir), "no tiles");
}

#endif // MOLCACHE_CONTRACTS_ACTIVE

} // namespace
} // namespace molcache
