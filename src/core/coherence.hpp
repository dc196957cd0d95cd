/**
 * @file
 * Inter-cluster coherence directory.
 *
 * Paper section 3: "Ulmo handles tile-misses and the coherence traffic
 * between the tile clusters".  molcache models that traffic with a
 * duplicate-tag style directory shared by all Ulmos: each resident line
 * address maps to the set of clusters holding a copy and an MSI-ish
 * state.  Fills add holders; writes invalidate remote holders; evictions
 * remove them.  With the disjoint per-application address windows of the
 * paper's workloads no invalidations occur (the directory just tracks);
 * shared-address-space workloads (e.g. threads of one application pinned
 * to different clusters) exercise the invalidate path — see
 * tests/core/coherence_test.cpp and examples.
 *
 * The directory is touched on every fill, every eviction and every write
 * hit, so it is one flat open-addressed table (linear probing,
 * backward-shift deletion, power-of-two capacity) sized once from the
 * cache's line capacity: steady-state misses allocate nothing, and one
 * directory update is one or two cache-line touches (docs/perf.md).
 */

#ifndef MOLCACHE_CORE_COHERENCE_HPP
#define MOLCACHE_CORE_COHERENCE_HPP

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace molcache {

/** Directory statistics. */
struct CoherenceStats
{
    u64 fills = 0;
    u64 writes = 0;
    u64 evictions = 0;
    u64 invalidationsSent = 0;
    u64 downgrades = 0;
};

class CoherenceDirectory
{
  public:
    /**
     * @param numClusters at most 32 clusters (holder bitmask width).
     * @param maxLines the most lines the caller can hold at once (the
     *        cache's line capacity); the table is sized so that many
     *        entries keep its load at or under 3/4.  The default suits
     *        small unit-test directories.
     */
    explicit CoherenceDirectory(u32 numClusters, u64 maxLines = 48);

    /**
     * A line was filled into @p cluster.
     * @param exclusive true when the fill is for a write (M state)
     * @return bitmask of clusters whose copies must be invalidated (bit c
     *         = cluster c; 0 for reads — reads of a remotely-modified line
     *         downgrade instead)
     */
    u32 noteFill(LineAddr lineAddr, ClusterId cluster, bool exclusive);

    /**
     * A write hit in @p cluster.
     * @return bitmask of clusters whose copies must be invalidated
     */
    u32 noteWrite(LineAddr lineAddr, ClusterId cluster);

    /** @p cluster no longer holds the line. */
    void noteEviction(LineAddr lineAddr, ClusterId cluster);

    /** True if @p cluster currently holds @p lineAddr. */
    bool isHeld(LineAddr lineAddr, ClusterId cluster) const;

    /** Number of clusters holding @p lineAddr. */
    u32 holderCount(LineAddr lineAddr) const;

    /** True if some cluster holds the line modified. */
    bool isModified(LineAddr lineAddr) const;

    const CoherenceStats &stats() const { return stats_; }

    /** Tracked line count (size of the directory). */
    size_t entries() const { return size_; }

  private:
    /** One table slot; `holders == 0` marks it empty, since every live
     * entry has at least one holder (the last eviction erases it). */
    struct Slot
    {
        u64 line = 0;
        u32 holders = 0; // bitmask over clusters
        bool modified = false;
        u8 owner = 0; // valid when modified
    };
    static_assert(sizeof(Slot) == 16, "a directory slot is 16 bytes");

    /** Home slot of @p line: Fibonacci hash, top log2(capacity) bits. */
    size_t
    home(u64 line) const
    {
        return static_cast<size_t>((line * 0x9e3779b97f4a7c15ull) >>
                                   hashShift_);
    }

    /** Index of @p line's slot, or ~0 when it is not tracked. */
    size_t find(u64 line) const;

    /** @p line's slot, claimed (zero holders) when it is not tracked. */
    Slot &findOrInsert(u64 line);

    /** Make @p cluster the sole, modified holder of @p e.
     * @return the mask of the other clusters that held it */
    u32 takeExclusive(Slot &e, ClusterId cluster);

    /** Remove the entry at @p index, shifting its probe run back. */
    void erase(size_t index);

    /** Double the table; the only path past the constructor's sizing. */
    void grow();

    /** Allocate an empty table of @p capacity (a power of two) slots. */
    void reset(size_t capacity);

    u32 numClusters_;
    std::vector<Slot> slots_;
    size_t mask_ = 0;
    u32 hashShift_ = 0;
    size_t size_ = 0;
    CoherenceStats stats_;
};

} // namespace molcache

#endif // MOLCACHE_CORE_COHERENCE_HPP
