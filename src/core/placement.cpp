#include "core/placement.hpp"

namespace molcache {

LookupPlan
planLookup(const Region &region, TileId requestorTile)
{
    LookupPlan plan;
    plan.home.tile = requestorTile;
    for (const auto &[tile, mols] : region.byTile()) {
        if (tile == requestorTile)
            plan.home.molecules = mols;
        else
            plan.remote.push_back(TileProbes{tile, mols});
    }
    return plan;
}

} // namespace molcache
