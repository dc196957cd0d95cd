/**
 * @file
 * Per-application and global cache statistics.
 *
 * Every cache model tracks hits/misses both globally and per ASID; the
 * paper's evaluation is entirely in terms of per-application miss rates
 * (Table 1, Figure 5, Table 2) so per-ASID resolution is first class.
 */

#ifndef MOLCACHE_CACHE_CACHE_STATS_HPP
#define MOLCACHE_CACHE_CACHE_STATS_HPP

#include <map>
#include <vector>

#include "stats/counter.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace molcache {

/** Counter block kept once globally and once per ASID. */
struct AccessCounters
{
    u64 accesses = 0;
    u64 hits = 0;
    u64 misses = 0;
    u64 writes = 0;
    u64 writebacks = 0;
    /** Sum of per-access latencies (cache cycles). */
    Cycles latencyCycles{};

    double missRate() const { return ratio(misses, accesses); }
    double hitRate() const { return ratio(hits, accesses); }
    /** Average memory access time, in cache cycles. */
    double amat() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(latencyCycles.value()) /
                                   static_cast<double>(accesses);
    }
};

class CacheStats
{
  public:
    /** Record one access outcome.  Inline: once per simulated access,
     * resolving a seen ASID through the dense index. */
    void
    record(Asid asid, bool hit, bool isWrite, Cycles latency = Cycles{0})
    {
        const u32 v = asid.value();
        AccessCounters &c = v < denseIndex_.size() && denseIndex_[v] != nullptr
                                ? *denseIndex_[v]
                                : slot(asid);
        bump(global_, hit, isWrite, latency);
        bump(c, hit, isWrite, latency);
    }

    /** Record a dirty-line eviction. */
    void recordWriteback(Asid asid);

    const AccessCounters &global() const { return global_; }

    /** Counters for @p asid (zeros if never seen). */
    const AccessCounters &forAsid(Asid asid) const;

    /** Per-ASID observed miss rates (only ASIDs actually seen). */
    std::map<Asid, double> missRates() const;

    /** All per-ASID counters. */
    const std::map<Asid, AccessCounters> &perAsid() const { return perAsid_; }

    /**
     * Forget @p asid's counters so the slot can be recycled for a new
     * application under the same ASID value.  Long-running multi-tenant
     * churn (molcached attach/detach cycles) reuses ASIDs; without
     * retirement the per-ASID map — and every consumer iterating it —
     * would grow with lifetime tenant count instead of live tenant
     * count.  Bumps the slot's generation tag so telemetry snapshots
     * taken before the retire can be told apart from the successor
     * tenant's counters.  Global counters are untouched (lifetime
     * totals survive tenant departure).  A never-seen ASID still gets
     * its generation bumped — the tag marks ASID reuse, and idle
     * tenants recycle ASIDs too.
     */
    void retire(Asid asid);

    /**
     * Times @p asid's counter slot has been retired (0 = never).  The
     * pair (asid, generation) uniquely names one tenant's statistics
     * across ASID reuse.
     */
    u32 generationOf(Asid asid) const;

    /** Live per-ASID slots (bounded by live tenants once departures
     * retire their slots — the churn regression tests pin this). */
    u64 trackedAsids() const { return static_cast<u64>(perAsid_.size()); }

    void reset();

  private:
    /** Counter block of @p asid, created on first sight.  Steady-state
     * calls resolve through the dense index — no map walk per access. */
    AccessCounters &slot(Asid asid);

    static void
    bump(AccessCounters &c, bool hit, bool isWrite, Cycles latency)
    {
        ++c.accesses;
        if (hit)
            ++c.hits;
        else
            ++c.misses;
        if (isWrite)
            ++c.writes;
        c.latencyCycles += latency;
    }

    AccessCounters global_;
    // Ordered authority for the reporting API; map nodes are stable so
    // the dense index can point at them.  molcache-lint: allow-map
    std::map<Asid, AccessCounters> perAsid_;
    std::vector<AccessCounters *> denseIndex_; // by asid value
    // Retire count per asid value; sized lazily by retire(), so the
    // common no-churn simulators never allocate it.
    std::vector<u32> generation_;
};

} // namespace molcache

#endif // MOLCACHE_CACHE_CACHE_STATS_HPP
