#include "core/ulmo.hpp"

#include <utility>

#include "contract/contract.hpp"

namespace molcache {

Ulmo::Ulmo(ClusterId cluster, std::vector<TileId> tiles)
    : cluster_(cluster), tiles_(std::move(tiles))
{
    MOLCACHE_EXPECT(!tiles_.empty(), "Ulmo with no tiles");
}

} // namespace molcache
