/**
 * @file
 * Ulmo — the tile-cluster controller ("Unlimited Molecules").
 *
 * One Ulmo manages each cluster of 4-8 tiles (paper figure 2).  It
 * handles tile misses by forwarding requests to the other tiles of the
 * cluster that contribute molecules to the requesting application's
 * region, brokers molecule donations between tiles during resizing, and
 * fronts the inter-cluster coherence directory.
 */

#ifndef MOLCACHE_CORE_ULMO_HPP
#define MOLCACHE_CORE_ULMO_HPP

#include <vector>

#include "core/coherence.hpp"
#include "core/tile.hpp"
#include "util/types.hpp"

namespace molcache {

class Ulmo
{
  public:
    /**
     * @param cluster   cluster index
     * @param tiles     global indices of this cluster's tiles
     * @param directory shared inter-cluster coherence directory
     */
    Ulmo(ClusterId cluster, std::vector<TileId> tiles,
         CoherenceDirectory &directory);

    ClusterId cluster() const { return cluster_; }
    const std::vector<TileId> &tiles() const { return tiles_; }
    bool managesTile(TileId tile) const;

    CoherenceDirectory &directory() { return directory_; }
    const CoherenceDirectory &directory() const { return directory_; }

    /** @{ Escalation statistics. */
    void noteTileMiss() { ++tileMisses_; }
    void noteRemoteProbes(u32 probes) { remoteProbes_ += probes; }
    void noteRemoteHit() { ++remoteHits_; }
    void noteDonation() { ++donations_; }
    void noteInvalidation() { ++invalidationsApplied_; }
    /** A molecule of this cluster was permanently fenced off. */
    void noteDecommission() { ++decommissions_; }

    u64 tileMisses() const { return tileMisses_; }
    u64 remoteProbes() const { return remoteProbes_; }
    u64 remoteHits() const { return remoteHits_; }
    u64 donations() const { return donations_; }
    u64 invalidationsApplied() const { return invalidationsApplied_; }
    u64 decommissions() const { return decommissions_; }
    /** @} */

  private:
    ClusterId cluster_;
    std::vector<TileId> tiles_;
    CoherenceDirectory &directory_;

    u64 tileMisses_ = 0;
    u64 remoteProbes_ = 0;
    u64 remoteHits_ = 0;
    u64 donations_ = 0;
    u64 invalidationsApplied_ = 0;
    u64 decommissions_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_CORE_ULMO_HPP
