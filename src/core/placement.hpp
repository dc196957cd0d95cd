/**
 * @file
 * Hierarchical lookup planning (paper section 3.3, "Replacement and
 * Lookup").
 *
 * Because a region's data may live in any of its molecules, a lookup must
 * in principle probe them all.  To bound the energy, the search is
 * hierarchical: the requestor's tile is probed first, and only on a tile
 * miss does Ulmo forward the request to the other tiles of the cluster
 * that contribute molecules to the region.  The LookupPlan captures that
 * order; MolecularCache executes it and charges energy per probe.
 *
 * planLookup() is the *reference* implementation: the per-access hot
 * path uses Region::probeSchedule() (the memoized equivalent, see
 * docs/perf.md), and tests/core/probe_schedule_test.cpp pins the two
 * against each other across membership churn.
 */

#ifndef MOLCACHE_CORE_PLACEMENT_HPP
#define MOLCACHE_CORE_PLACEMENT_HPP

#include <vector>

#include "core/region.hpp"

namespace molcache {

/** Ordered probe schedule for one access. */
struct LookupPlan
{
    /** Molecules to probe on the requestor's tile (may be empty). */
    TileProbes home;
    /** Remote tiles, in ascending tile order, probed via Ulmo. */
    std::vector<TileProbes> remote;

    u32
    totalProbes() const
    {
        u32 n = static_cast<u32>(home.molecules.size());
        for (const auto &t : remote)
            n += static_cast<u32>(t.molecules.size());
        return n;
    }
};

/**
 * Build the probe schedule for a request entering @p requestorTile.
 * Every molecule of the region is probed — a line may live in any of
 * them — so the plan does not depend on the address.
 *
 * @param region         the requestor's cache region
 * @param requestorTile  tile the request enters through
 */
LookupPlan planLookup(const Region &region, TileId requestorTile);

} // namespace molcache

#endif // MOLCACHE_CORE_PLACEMENT_HPP
