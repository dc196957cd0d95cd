/**
 * @file
 * SimAccess: the simulator-only mutation surface of MolecularCache.
 *
 * The molcached service (src/service/) shares MolecularCache with the
 * trace-replay harness, but a handful of mutators are only correct on a
 * quiescent single-threaded cache: fault injection rewires tiles mid
 * run and setAuditHook installs re-entrant callbacks.  Those used to be
 * public methods — nothing stopped future service code from calling
 * them off a worker thread with only a shard lock held.
 *
 * They are now private to MolecularCache and reachable only through
 * this friend facade.  The rule is mechanical, so machine-checkable:
 * naming SimAccess under src/service/ is a molcache-lint
 * `sim-access-in-service` finding (docs/static_analysis.md).  Sim-side
 * callers (benches, tests, the sweep engine, the InvariantChecker's
 * attached audit) construct one explicitly, which also makes the
 * "this code assumes a quiescent cache" contract visible at the call
 * site:
 *
 *     SimAccess sim(cache);
 *     sim.injectTileOutage(TileId{2});
 *
 * The facade is stateless and free to construct per call site; holding
 * one confers no locking whatsoever.
 */

#ifndef MOLCACHE_CORE_SIM_ACCESS_HPP
#define MOLCACHE_CORE_SIM_ACCESS_HPP

#include <utility>

#include "core/molecular_cache.hpp"

namespace molcache {

class SimAccess
{
  public:
    explicit SimAccess(MolecularCache &cache)
        : cache_(cache)
    {
    }

    /** @{ See the MolecularCache declarations for semantics. */
    void
    setFaultInjector(FaultInjector injector)
    {
        cache_.setFaultInjector(std::move(injector));
    }

    bool
    decommissionMolecule(MoleculeId id)
    {
        return cache_.decommissionMolecule(id);
    }

    void
    injectHardFault(MoleculeId id)
    {
        cache_.injectHardFault(id);
    }

    void
    injectTransientFlip(MoleculeId id, u32 line)
    {
        cache_.injectTransientFlip(id, line);
    }

    void
    injectTileOutage(TileId tile)
    {
        cache_.injectTileOutage(tile);
    }

    void
    injectClusterOutage(ClusterId cluster)
    {
        cache_.injectClusterOutage(cluster);
    }

    void
    setAuditHook(Tick everyAccesses, MolecularCache::AuditHook hook)
    {
        cache_.setAuditHook(everyAccesses, std::move(hook));
    }
    /** @} */

  private:
    MolecularCache &cache_;
};

} // namespace molcache

#endif // MOLCACHE_CORE_SIM_ACCESS_HPP
