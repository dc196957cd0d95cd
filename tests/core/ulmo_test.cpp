#include "core/ulmo.hpp"

#include <gtest/gtest.h>

#include "contract/contract.hpp"

namespace molcache {
namespace {

TEST(Ulmo, Construction)
{
    Ulmo ulmo(ClusterId{1}, {TileId{4}, TileId{5}, TileId{6}, TileId{7}});
    EXPECT_EQ(ulmo.cluster(), ClusterId{1});
    ASSERT_EQ(ulmo.tiles().size(), 4u);
    EXPECT_EQ(ulmo.tiles().front(), TileId{4});
    EXPECT_EQ(ulmo.tiles().back(), TileId{7});
}

// These deaths come from contracts, which a pure Release build
// compiles out (Contract.CompiledOutChecksDoNotEvaluate pins that).
#if MOLCACHE_CONTRACTS_ACTIVE

TEST(UlmoDeath, NoTiles)
{
    EXPECT_DEATH(Ulmo(ClusterId{0}, {}), "no tiles");
}

#endif // MOLCACHE_CONTRACTS_ACTIVE

} // namespace
} // namespace molcache
