/**
 * @file
 * Traditional set-associative cache model (the Dinero role).
 *
 * This is the paper's baseline: a monolithic, shared, set-associative
 * cache with a common line size and associativity for all applications.
 * It is trace driven and tracks per-ASID statistics so the interference
 * experiment (Table 1) and the deviation baselines (Figure 5, Table 2)
 * fall out directly.  Like the paper's Dinero IV runs, every set
 * replaces its least recently used way.
 */

#ifndef MOLCACHE_CACHE_SET_ASSOC_HPP
#define MOLCACHE_CACHE_SET_ASSOC_HPP

#include <string>
#include <vector>

#include "cache/cache_model.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace molcache {

/** Geometry and timing of a traditional cache. */
struct SetAssocParams
{
    Bytes sizeBytes = 1_MiB;
    u32 associativity = 4;
    u32 lineSize = 64;
    /** Dynamic energy per access (nJ); 0 disables energy accounting. */
    double energyPerAccessNj = 0.0;
    /** Hit latency in cache cycles. */
    Cycles hitLatencyCycles{1};
    /** Additional cycles a miss pays for the memory round trip. */
    Cycles missPenaltyCycles{200};

    u32 numSets() const;
    u32 numLines() const;

    /** fatal() unless sizes/associativity are coherent powers of two. */
    void validate() const;
};

class SetAssocCache final : public CacheModel
{
  public:
    explicit SetAssocCache(const SetAssocParams &params);

    AccessResult access(const MemAccess &access) override;
    const CacheStats &stats() const override { return stats_; }
    std::string name() const override;
    void resetStats() override;
    double totalEnergyNj() const override { return energyNj_; }

    const SetAssocParams &params() const { return params_; }

    /** True if @p addr is currently cached (no state change). */
    bool probe(Addr addr) const;

    /** Number of valid lines currently held by @p asid. */
    u32 occupancy(Asid asid) const;

    /** Invalidate everything (keeps stats). */
    void flush();

  private:
    struct Line
    {
        Addr tag = 0;
        Asid asid = kInvalidAsid;
        bool valid = false;
        bool dirty = false;
    };

    u32 setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    size_t slotOf(u32 set, u32 way) const;
    Line &lineAt(u32 set, u32 way);
    const Line &lineAt(u32 set, u32 way) const;

    SetAssocParams params_;
    u32 sets_;
    std::vector<Line> lines_;
    /** LRU recency per line, parallel to lines_: the clock at its last
     * touch.  Kept out of Line so the tag scan stays dense. */
    std::vector<u64> stamps_;
    u64 clock_ = 0;
    CacheStats stats_;
    double energyNj_ = 0.0;
};

} // namespace molcache

#endif // MOLCACHE_CACHE_SET_ASSOC_HPP
