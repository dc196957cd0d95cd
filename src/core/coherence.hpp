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
 * The directory starts coarse (Cantin, Lipasti & Smith, "Improving
 * Multiprocessor Performance with Coarse-Grain Coherence Tracking", ISCA
 * 2005): one grow-only holder mask per 64 KiB address chunk, in a
 * small open-addressed table.  While no chunk has two holder clusters,
 * no line can have two holders either, so a write never invalidates
 * anything and a line's whole directory state is "which cluster holds
 * it, and is it dirty" — state the cache's molecules already carry.
 * Fills then touch only the chunk table, and write hits and evictions
 * only count.  The first fill into a chunk another cluster holds builds
 * the per-line table once, from the cache's resident lines
 * (ResidentLines), and the directory runs per line from then on.  A
 * one-cluster cache (fig5, every service shard) and the disjoint
 * per-application windows of the multi-cluster sweeps never switch.
 *
 * The per-line table is one flat open-addressed table (linear probing,
 * backward-shift deletion, power-of-two capacity) sized once from the
 * cache's line capacity: steady-state misses allocate nothing, and one
 * directory update is one or two cache-line touches (docs/perf.md).  A
 * directory built without a line source has nothing to rebuild from, so
 * it starts with the per-line table.
 */

#ifndef MOLCACHE_CORE_COHERENCE_HPP
#define MOLCACHE_CORE_COHERENCE_HPP

#include <cstddef>
#include <functional>
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

/** The lines a cache holds: what a coarse directory rebuilds its
 * per-line table from.  Called only at the switch and by coarse-mode
 * queries, never on the access path. */
class ResidentLines
{
  public:
    using Visit = std::function<void(LineAddr, ClusterId, bool dirty)>;

    virtual ~ResidentLines() = default;

    /** Call @p visit once per resident copy of a line. */
    virtual void forEachResidentLine(const Visit &visit) const = 0;
};

class CoherenceDirectory
{
  public:
    /**
     * @param numClusters at most 32 clusters (holder bitmask width).
     * @param maxLines the most lines the caller can hold at once (the
     *        cache's line capacity); the per-line table is sized so that
     *        many entries keep its load at or under 3/4.  The default
     *        suits small unit-test directories.
     * @param lines the caller's resident lines; when given, the
     *        directory starts coarse and builds its per-line table from
     *        them on the first fill that shares a chunk.  It must
     *        outlive the directory.
     */
    explicit CoherenceDirectory(u32 numClusters, u64 maxLines = 48,
                                const ResidentLines *lines = nullptr);

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
    u32
    noteWrite(LineAddr lineAddr, ClusterId cluster)
    {
        ++stats_.writes;
        // Coarse: the writer's cluster holds the line, and no other
        // cluster holds anything in its chunk.
        return coarse() ? 0 : writeLine(lineAddr, cluster);
    }

    /** @p cluster no longer holds the line. */
    void
    noteEviction(LineAddr lineAddr, ClusterId cluster)
    {
        if (coarse())
            ++stats_.evictions; // the masks are grow-only
        else
            evictLine(lineAddr, cluster);
    }

    /** True if @p cluster currently holds @p lineAddr. */
    bool isHeld(LineAddr lineAddr, ClusterId cluster) const;

    /** Number of clusters holding @p lineAddr. */
    u32 holderCount(LineAddr lineAddr) const;

    /** True if some cluster holds the line modified. */
    bool isModified(LineAddr lineAddr) const;

    const CoherenceStats &stats() const { return stats_; }

    /** Tracked line count (size of the directory). */
    size_t
    entries() const
    {
        return coarse() ? stats_.fills - stats_.evictions : size_;
    }

    /** True until the first fill into a chunk another cluster holds. */
    bool coarse() const { return slots_.empty(); }

    /** Coarse holder mask of @p lineAddr's chunk (0 once per-line). */
    u32 chunkHolders(LineAddr lineAddr) const;

  private:
    /** One per-line table slot; `holders == 0` marks it empty, since
     * every live entry has at least one holder (the last eviction erases
     * it). */
    struct Slot
    {
        u64 line = 0;
        u32 holders = 0; // bitmask over clusters
        bool modified = false;
        u8 owner = 0; // valid when modified
    };
    static_assert(sizeof(Slot) == 16, "a directory slot is 16 bytes");

    /** One coarse chunk-table slot; `holders == 0` marks it empty. */
    struct Chunk
    {
        u64 chunk = 0;
        u32 holders = 0;
    };

    /** Fibonacci hash of @p key, top bits per @p shift. */
    static size_t
    fibHash(u64 key, u32 shift)
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
    }

    /** Home slot of @p line in the per-line table. */
    size_t home(u64 line) const { return fibHash(line, hashShift_); }

    /** Index of @p line's slot, or ~0 when it is not tracked. */
    size_t find(u64 line) const;

    /** @p line's slot, claimed (zero holders) when it is not tracked. */
    Slot &findOrInsert(u64 line);

    /** Make @p cluster the sole, modified holder of @p e.
     * @return the mask of the other clusters that held it */
    u32 takeExclusive(Slot &e, ClusterId cluster);

    /** @{ The per-line halves of noteWrite and noteEviction. */
    u32 writeLine(LineAddr lineAddr, ClusterId cluster);
    void evictLine(LineAddr lineAddr, ClusterId cluster);
    /** @} */

    /** Remove the entry at @p index, shifting its probe run back. */
    void erase(size_t index);

    /** Double the table; the only path past the constructor's sizing. */
    void grow();

    /** Allocate an empty table of @p capacity (a power of two) slots. */
    void reset(size_t capacity);

    /** @p chunk's slot in the chunk table, claimed when absent. */
    Chunk &findOrInsertChunk(u64 chunk);

    /** Build the per-line table from the resident lines and drop the
     * chunk table: the one-way switch out of coarse mode. */
    void materialise();

    /** Clusters holding @p line and whether a copy is dirty, read from
     * the resident lines (coarse-mode queries). */
    u32 residentHolders(u64 line, bool &dirty) const;

    u32 numClusters_;
    const ResidentLines *lines_;
    /** Per-line table capacity, allocated by materialise(). */
    size_t lineCapacity_;
    std::vector<Slot> slots_;
    size_t mask_ = 0;
    u32 hashShift_ = 0;
    size_t size_ = 0;
    std::vector<Chunk> chunks_;
    u32 chunkShift_ = 0;
    size_t chunkCount_ = 0;
    CoherenceStats stats_;
};

} // namespace molcache

#endif // MOLCACHE_CORE_COHERENCE_HPP
