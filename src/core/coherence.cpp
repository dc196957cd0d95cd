#include "core/coherence.hpp"

#include <bit>

#include "contract/contract.hpp"

namespace molcache {

namespace {

/** Line address to chunk: 64 KiB chunks. */
constexpr u32 kChunkShift = 16;

/** Initial chunk-table capacity; it doubles at 3/4 load. */
constexpr size_t kInitialChunks = 256;

/** Fibonacci hash of @p key, top bits per @p shift. */
size_t
fibHash(u64 key, u32 shift)
{
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
}

} // namespace

CoherenceDirectory::CoherenceDirectory(u32 numClusters)
    : numClusters_(numClusters), chunks_(kInitialChunks),
      chunkShift_(64u - static_cast<u32>(std::countr_zero(kInitialChunks)))
{
    MOLCACHE_EXPECT(numClusters >= 1 && numClusters <= 32,
                    "directory supports 1..32 clusters");
}

CoherenceDirectory::Chunk &
CoherenceDirectory::findOrInsertChunk(u64 chunk)
{
    const size_t mask = chunks_.size() - 1;
    for (size_t i = fibHash(chunk, chunkShift_);; i = (i + 1) & mask) {
        Chunk &c = chunks_[i];
        if (c.holders != 0) {
            if (c.chunk == chunk)
                return c;
            continue;
        }
        if ((chunkCount_ + 1) * 4 > chunks_.size() * 3) {
            // Grow-only masks: rehash every chunk into a table twice
            // the size.
            std::vector<Chunk> old;
            old.swap(chunks_);
            chunks_.assign(old.size() * 2, Chunk{});
            chunkShift_ =
                64u - static_cast<u32>(std::countr_zero(chunks_.size()));
            chunkCount_ = 0;
            for (const Chunk &o : old)
                if (o.holders != 0)
                    findOrInsertChunk(o.chunk).holders = o.holders;
            return findOrInsertChunk(chunk);
        }
        ++chunkCount_;
        c.chunk = chunk;
        return c;
    }
}

u32
CoherenceDirectory::chunkHolders(LineAddr lineAddr) const
{
    const u64 chunk = lineAddr.value() >> kChunkShift;
    const size_t mask = chunks_.size() - 1;
    for (size_t i = fibHash(chunk, chunkShift_);; i = (i + 1) & mask) {
        const Chunk &c = chunks_[i];
        if (c.holders == 0 || c.chunk == chunk)
            return c.holders;
    }
}

u32
CoherenceDirectory::noteFill(LineAddr lineAddr, ClusterId cluster,
                             bool exclusive)
{
    MOLCACHE_EXPECT(cluster.value() < numClusters_, "cluster out of range");
    ++stats_.fills;
    Chunk &c = findOrInsertChunk(lineAddr.value() >> kChunkShift);
    const u32 bit = 1u << cluster.value();
    const u32 others = c.holders & ~bit;
    c.holders |= bit;
    if (others == 0)
        return 0;
    shared_ = true;
    return exclusive ? others : 0;
}

} // namespace molcache
