/**
 * @file
 * The common interface every simulated cache implements.
 *
 * Both the traditional set-associative baseline (cache/set_assoc.hpp) and
 * the molecular cache (core/molecular_cache.hpp) are trace-driven models
 * behind this interface, so the simulator, benches and tests treat them
 * uniformly.
 */

#ifndef MOLCACHE_CACHE_CACHE_MODEL_HPP
#define MOLCACHE_CACHE_CACHE_MODEL_HPP

#include <span>
#include <string>

#include "cache/cache_stats.hpp"
#include "mem/access.hpp"

namespace molcache {

class CacheModel
{
  public:
    virtual ~CacheModel() = default;

    /** Present one reference; updates stats and returns the outcome. */
    virtual AccessResult access(const MemAccess &access) = 0;

    /**
     * Present a block of references; writes one outcome per reference.
     * The default — and every model's — implementation calls access()
     * in order, so a block is exactly equivalent to its references one
     * by one.  It lets callers hand over a block per call (the
     * simulator's warm-up boundary, molcached's one-lock-per-chunk
     * Service::accessBatch).  @p in and @p out must be the same length.
     */
    virtual void accessBatch(std::span<const MemAccess> in,
                             std::span<AccessResult> out);

    /** Aggregated statistics since construction / last resetStats(). */
    virtual const CacheStats &stats() const = 0;

    /** Human-readable model description for reports. */
    virtual std::string name() const = 0;

    /** Clear statistics (leaves cache contents intact). */
    virtual void resetStats() = 0;

    /** Total dynamic energy consumed so far, in nanojoules. */
    virtual double totalEnergyNj() const = 0;
};

} // namespace molcache

#endif // MOLCACHE_CACHE_CACHE_MODEL_HPP
