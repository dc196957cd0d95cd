#include "core/coherence.hpp"

#include <algorithm>
#include <bit>

#include "contract/contract.hpp"

namespace molcache {

namespace {

constexpr size_t kNotFound = ~size_t{0};

/** Line address to coarse chunk: 64 KiB chunks. */
constexpr u32 kChunkShift = 16;

/** Initial chunk-table capacity; it doubles at 3/4 load. */
constexpr size_t kInitialChunks = 256;

} // namespace

CoherenceDirectory::CoherenceDirectory(u32 numClusters, u64 maxLines,
                                       const ResidentLines *lines)
    : numClusters_(numClusters), lines_(lines),
      // ceil(maxLines * 4/3) slots keep the load <= 3/4 with every line
      // the cache can hold tracked at once.
      lineCapacity_(
          std::bit_ceil(std::max<u64>((maxLines * 4 + 2) / 3, 16)))
{
    MOLCACHE_EXPECT(numClusters >= 1 && numClusters <= 32,
                    "directory supports 1..32 clusters");
    if (lines_ == nullptr) {
        reset(lineCapacity_);
        return;
    }
    chunks_.assign(kInitialChunks, Chunk{});
    chunkShift_ = 64u - static_cast<u32>(std::countr_zero(kInitialChunks));
}

void
CoherenceDirectory::reset(size_t capacity)
{
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    hashShift_ = 64u - static_cast<u32>(std::countr_zero(capacity));
    size_ = 0;
}

size_t
CoherenceDirectory::find(u64 line) const
{
    for (size_t i = home(line);; i = (i + 1) & mask_) {
        const Slot &s = slots_[i];
        if (s.holders == 0)
            return kNotFound;
        if (s.line == line)
            return i;
    }
}

CoherenceDirectory::Slot &
CoherenceDirectory::findOrInsert(u64 line)
{
    for (size_t i = home(line);; i = (i + 1) & mask_) {
        Slot &s = slots_[i];
        if (s.holders != 0) {
            if (s.line == line)
                return s;
            continue;
        }
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            grow();
            return findOrInsert(line);
        }
        ++size_;
        s.line = line;
        return s;
    }
}

void
CoherenceDirectory::erase(size_t index)
{
    // Backward shift: walk the probe run after the hole and pull back
    // every entry whose home lies at or before the hole, so lookups
    // never need tombstones.
    for (size_t j = (index + 1) & mask_; slots_[j].holders != 0;
         j = (j + 1) & mask_) {
        const size_t displacement = (j - home(slots_[j].line)) & mask_;
        if (displacement >= ((j - index) & mask_)) {
            slots_[index] = slots_[j];
            index = j;
        }
    }
    slots_[index] = Slot{};
    --size_;
}

void
CoherenceDirectory::grow()
{
    std::vector<Slot> old;
    old.swap(slots_);
    reset(old.size() * 2);
    for (const Slot &s : old)
        if (s.holders != 0)
            findOrInsert(s.line) = s;
}

u32
CoherenceDirectory::takeExclusive(Slot &e, ClusterId cluster)
{
    const u32 bit = 1u << cluster.value();
    const u32 invalidate = e.holders & ~bit;
    stats_.invalidationsSent +=
        static_cast<u32>(std::popcount(invalidate));
    e.holders = bit;
    e.modified = true;
    e.owner = static_cast<u8>(cluster.value());
    return invalidate;
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
    if (!coarse())
        return 0;
    const u64 chunk = lineAddr.value() >> kChunkShift;
    const size_t mask = chunks_.size() - 1;
    for (size_t i = fibHash(chunk, chunkShift_);; i = (i + 1) & mask) {
        const Chunk &c = chunks_[i];
        if (c.holders == 0 || c.chunk == chunk)
            return c.holders;
    }
}

void
CoherenceDirectory::materialise()
{
    reset(lineCapacity_);
    lines_->forEachResidentLine([this](LineAddr line, ClusterId cluster,
                                       bool dirty) {
        Slot &e = findOrInsert(line.value());
        e.holders |= 1u << cluster.value();
        if (dirty) {
            e.modified = true;
            e.owner = static_cast<u8>(cluster.value());
        }
    });
    std::vector<Chunk>().swap(chunks_);
}

u32
CoherenceDirectory::residentHolders(u64 line, bool &dirty) const
{
    u32 holders = 0;
    dirty = false;
    lines_->forEachResidentLine(
        [&](LineAddr l, ClusterId cluster, bool d) {
            if (l.value() != line)
                return;
            holders |= 1u << cluster.value();
            dirty |= d;
        });
    return holders;
}

u32
CoherenceDirectory::noteFill(LineAddr lineAddr, ClusterId cluster,
                             bool exclusive)
{
    MOLCACHE_EXPECT(cluster.value() < numClusters_, "cluster out of range");
    ++stats_.fills;
    if (coarse()) {
        Chunk &c = findOrInsertChunk(lineAddr.value() >> kChunkShift);
        const u32 bit = 1u << cluster.value();
        if ((c.holders & ~bit) == 0) {
            c.holders |= bit;
            return 0;
        }
        // The first chunk two clusters hold: track it per line from now.
        materialise();
    }
    Slot &e = findOrInsert(lineAddr.value());
    if (exclusive)
        return takeExclusive(e, cluster);

    // Read fill: a remote modified copy is downgraded to shared (its data
    // is assumed written back), everyone keeps a copy.
    if (e.modified && e.owner != cluster.value()) {
        e.modified = false;
        ++stats_.downgrades;
    }
    e.holders |= 1u << cluster.value();
    return 0;
}

u32
CoherenceDirectory::writeLine(LineAddr lineAddr, ClusterId cluster)
{
    MOLCACHE_EXPECT(cluster.value() < numClusters_, "cluster out of range");
    return takeExclusive(findOrInsert(lineAddr.value()), cluster);
}

void
CoherenceDirectory::evictLine(LineAddr lineAddr, ClusterId cluster)
{
    MOLCACHE_EXPECT(cluster.value() < numClusters_, "cluster out of range");
    const size_t i = find(lineAddr.value());
    if (i == kNotFound)
        return;
    ++stats_.evictions;
    Slot &e = slots_[i];
    e.holders &= ~(1u << cluster.value());
    if (e.modified && e.owner == cluster.value())
        e.modified = false;
    if (e.holders == 0)
        erase(i);
}

bool
CoherenceDirectory::isHeld(LineAddr lineAddr, ClusterId cluster) const
{
    if (coarse()) {
        bool dirty = false;
        return residentHolders(lineAddr.value(), dirty) &
               (1u << cluster.value());
    }
    const size_t i = find(lineAddr.value());
    return i != kNotFound && (slots_[i].holders & (1u << cluster.value()));
}

u32
CoherenceDirectory::holderCount(LineAddr lineAddr) const
{
    if (coarse()) {
        bool dirty = false;
        return static_cast<u32>(
            std::popcount(residentHolders(lineAddr.value(), dirty)));
    }
    const size_t i = find(lineAddr.value());
    return i == kNotFound
               ? 0
               : static_cast<u32>(std::popcount(slots_[i].holders));
}

bool
CoherenceDirectory::isModified(LineAddr lineAddr) const
{
    if (coarse()) {
        bool dirty = false;
        residentHolders(lineAddr.value(), dirty);
        return dirty;
    }
    const size_t i = find(lineAddr.value());
    return i != kNotFound && slots_[i].modified;
}

} // namespace molcache
