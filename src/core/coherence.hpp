/**
 * @file
 * Inter-cluster coherence directory.
 *
 * Paper section 3: "Ulmo handles tile-misses and the coherence traffic
 * between the tile clusters".  molcache models that traffic with coarse
 * holder masks (Cantin, Lipasti & Smith, "Improving Multiprocessor
 * Performance with Coarse-Grain Coherence Tracking", ISCA 2005): one
 * grow-only mask per 64 KiB address chunk, in a small open-addressed
 * table shared by all Ulmos, naming every cluster that has filled a
 * line of the chunk.  A write in a chunk other clusters hold returns
 * their mask, and the cache snoops those clusters for the line
 * (RegionScout, Moshovos, ISCA 2005).  Snooping a cluster that does not
 * hold the line drops nothing, so the masks' over-approximation changes
 * no hit, miss or writeback; it only costs the snoop walk.
 *
 * With the disjoint per-application address windows of the paper's
 * workloads no chunk gains a second holder: a fill is one chunk-table
 * lookup, and write hits and evictions only count.  Shared-address
 * workloads (threads of one application pinned to different clusters)
 * exercise the snoop — see tests/core/coherence_test.cpp and
 * tests/core/molecular_cache_test.cpp.
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
    /** Copies the cache dropped on the directory's behalf. */
    u64 invalidationsSent = 0;
};

class CoherenceDirectory
{
  public:
    /** @param numClusters at most 32 clusters (holder bitmask width). */
    explicit CoherenceDirectory(u32 numClusters);

    /**
     * A line was filled into @p cluster.
     * @param exclusive true when the fill is for a write (M state)
     * @return bitmask of the other clusters to snoop for the line (bit
     *         c = cluster c; 0 for reads)
     */
    u32 noteFill(LineAddr lineAddr, ClusterId cluster, bool exclusive);

    /**
     * A write hit in @p cluster.
     * @return bitmask of the other clusters to snoop for the line
     */
    u32
    noteWrite(LineAddr lineAddr, ClusterId cluster)
    {
        ++stats_.writes;
        // Unshared: the writer's cluster is the only one in its chunk.
        return shared_ ? chunkHolders(lineAddr) & ~(1u << cluster.value())
                       : 0;
    }

    /** A cluster dropped @p copies line copies; the masks are
     * grow-only, so this only counts. */
    void noteEviction(u64 copies = 1) { stats_.evictions += copies; }

    /** A snoop dropped a copy (its eviction is noted separately). */
    void noteInvalidation() { ++stats_.invalidationsSent; }

    const CoherenceStats &stats() const { return stats_; }

    /** Resident line copies: every fill adds one, every eviction
     * removes one. */
    size_t entries() const { return stats_.fills - stats_.evictions; }

    /** True once some chunk has two holder clusters. */
    bool shared() const { return shared_; }

    /** Holder mask of @p lineAddr's chunk (0 when never filled). */
    u32 chunkHolders(LineAddr lineAddr) const;

  private:
    /** One chunk-table slot; `holders == 0` marks it empty. */
    struct Chunk
    {
        u64 chunk = 0;
        u32 holders = 0;
    };

    /** @p chunk's slot, claimed when absent. */
    Chunk &findOrInsertChunk(u64 chunk);

    u32 numClusters_;
    bool shared_ = false;
    std::vector<Chunk> chunks_;
    u32 chunkShift_ = 0;
    size_t chunkCount_ = 0;
    CoherenceStats stats_;
};

} // namespace molcache

#endif // MOLCACHE_CORE_COHERENCE_HPP
