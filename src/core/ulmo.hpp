/**
 * @file
 * Ulmo — the tile-cluster controller ("Unlimited Molecules").
 *
 * One Ulmo manages each cluster of 4-8 tiles (paper figure 2).  It
 * handles tile misses by forwarding requests to the other tiles of the
 * cluster that contribute molecules to the requesting application's
 * region, and brokers molecule donations between tiles during resizing.
 * The cluster's tile list is what both walks iterate; the
 * decommission count is what InvariantChecker cross-checks.
 */

#ifndef MOLCACHE_CORE_ULMO_HPP
#define MOLCACHE_CORE_ULMO_HPP

#include <vector>

#include "core/tile.hpp"
#include "util/types.hpp"

namespace molcache {

class Ulmo
{
  public:
    /**
     * @param cluster cluster index
     * @param tiles   global indices of this cluster's tiles
     */
    Ulmo(ClusterId cluster, std::vector<TileId> tiles);

    ClusterId cluster() const { return cluster_; }
    const std::vector<TileId> &tiles() const { return tiles_; }

    /** A molecule of this cluster was permanently fenced off. */
    void noteDecommission() { ++decommissions_; }
    u64 decommissions() const { return decommissions_; }

  private:
    ClusterId cluster_;
    std::vector<TileId> tiles_;
    u64 decommissions_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_CORE_ULMO_HPP
