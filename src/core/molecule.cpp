#include "core/molecule.hpp"

#include "contract/contract.hpp"
#include "util/bits.hpp"

namespace molcache {

Molecule::Molecule(MoleculeId id, TileId tile, u32 numLines,
                   u32 lineSize)
    : id_(id), tile_(tile), numLines_(numLines), lineSize_(lineSize),
      ownTags_(numLines, 0), ownTouched_(numLines, 0),
      ownFlags_(numLines, 0)
{
    MOLCACHE_EXPECT(numLines > 0 && isPowerOfTwo(numLines),
                    "molecule lines must be a power of two");
    MOLCACHE_EXPECT(isPowerOfTwo(lineSize), "line size must be 2^k");
    lineShift_ = floorLog2(lineSize);
    tagShift_ = lineShift_ + floorLog2(numLines);
    tags_ = ownTags_.data();
    touched_ = ownTouched_.data();
    flags_ = ownFlags_.data();
}

Molecule::Molecule(MoleculeId id, TileId tile, u32 numLines, u32 lineSize,
                   Addr *tags, Tick *touched, u8 *flags, u32 stride)
    : id_(id), tile_(tile), numLines_(numLines), lineSize_(lineSize),
      stride_(stride), tags_(tags), touched_(touched), flags_(flags)
{
    MOLCACHE_EXPECT(numLines > 0 && isPowerOfTwo(numLines),
                    "molecule lines must be a power of two");
    MOLCACHE_EXPECT(isPowerOfTwo(lineSize), "line size must be 2^k");
    MOLCACHE_EXPECT(tags != nullptr && touched != nullptr &&
                        flags != nullptr,
                    "molecule line-view pointers must be non-null");
    MOLCACHE_EXPECT(stride > 0, "molecule line-view stride must be > 0");
    lineShift_ = floorLog2(lineSize);
    tagShift_ = lineShift_ + floorLog2(numLines);
}

void
Molecule::clearLine(u32 index)
{
    const size_t s = slot(index);
    tags_[s] = 0;
    touched_[s] = 0;
    flags_[s] = 0;
}

u32
Molecule::dropAllLines()
{
    // Invalid slots are already all-zero (clearLine is the only way a
    // slot becomes invalid), so skipping them leaves the same state a
    // full clear would, and the walk ends at the last held line.
    u32 dirty = 0;
    for (u32 i = 0; i < numLines_ && valid_ != 0; ++i) {
        const u8 f = flags_[slot(i)];
        if ((f & kLineValid) == 0)
            continue;
        // Poisoned lines are corrupt: dropped, never written back.
        if ((f & (kLineDirty | kLinePoisoned)) == kLineDirty)
            ++dirty;
        clearLine(i);
        --valid_;
    }
    return dirty;
}

void
Molecule::assignTo(Asid asid)
{
    MOLCACHE_EXPECT(asid != kInvalidAsid, "assigning invalid ASID");
    MOLCACHE_EXPECT(!decommissioned_, "assigning a decommissioned molecule");
    // Reconfiguration invalidates contents: region data must not leak
    // between applications.
    dropAllLines();
    asid_ = asid;
}

u32
Molecule::release()
{
    const u32 dirty = dropAllLines();
    asid_ = kInvalidAsid;
    return dirty;
}

void
Molecule::markDirty(Addr addr)
{
    const size_t s = slot(indexOf(addr));
    MOLCACHE_EXPECT((flags_[s] & kLineValid) != 0 &&
                        tags_[s] == tagOf(addr),
                    "markDirty on non-resident line");
    flags_[s] |= kLineDirty;
}

std::optional<Eviction>
Molecule::fill(Addr addr, bool dirty, Tick tick)
{
    const u32 i = indexOf(addr);
    const size_t s = slot(i);
    const u8 f = flags_[s];
    std::optional<Eviction> evicted;
    if ((f & kLineValid) != 0) {
        if (tags_[s] == tagOf(addr)) {
            // Refill of a resident line.  A poisoned copy is overwritten
            // by the fresh fill, which also clears the corruption — but
            // its dirty bit described lost data, so it must not merge.
            const bool merged = (f & kLinePoisoned) != 0
                                    ? dirty
                                    : ((f & kLineDirty) != 0 || dirty);
            flags_[s] = kLineValid | lineKeyOf(tags_[s]) |
                        (merged ? kLineDirty : 0);
            touched_[s] = tick;
            return std::nullopt;
        }
        // Reconstruct the displaced address from tag+index.
        const Addr old = (tags_[s] * numLines_ + i) * lineSize_;
        evicted = Eviction{old, (f & kLineDirty) != 0,
                           (f & kLinePoisoned) != 0};
    } else {
        ++valid_;
    }
    tags_[s] = tagOf(addr);
    flags_[s] = kLineValid | lineKeyOf(tags_[s]) | (dirty ? kLineDirty : 0);
    touched_[s] = tick;
    return evicted;
}

void
Molecule::noteTouch(Addr addr, Tick tick)
{
    const size_t s = slot(indexOf(addr));
    MOLCACHE_EXPECT((flags_[s] & kLineValid) != 0 &&
                        tags_[s] == tagOf(addr),
                    "noteTouch on non-resident line");
    touched_[s] = tick;
}

std::optional<Tick>
Molecule::slotTouchTick(Addr addr) const
{
    const size_t s = slot(indexOf(addr));
    if ((flags_[s] & kLineValid) == 0)
        return std::nullopt;
    return touched_[s];
}

std::optional<Eviction>
Molecule::invalidate(Addr addr)
{
    const u32 i = indexOf(addr);
    const size_t s = slot(i);
    const u8 f = flags_[s];
    if ((f & kLineValid) == 0 || tags_[s] != tagOf(addr))
        return std::nullopt;
    const Eviction dropped{alignDown(addr, lineSize_),
                           (f & kLineDirty) != 0,
                           (f & kLinePoisoned) != 0};
    clearLine(i);
    --valid_;
    return dropped;
}

bool
Molecule::poisonLine(u32 index)
{
    MOLCACHE_EXPECT(index < numLines_, "poisoned line index out of range");
    const size_t s = slot(index);
    if ((flags_[s] & kLineValid) == 0)
        return false; // flip in an invalid slot: nothing to corrupt
    flags_[s] |= kLinePoisoned;
    return true;
}

std::optional<Eviction>
Molecule::scrubIfPoisoned(Addr addr)
{
    const u32 i = indexOf(addr);
    const size_t s = slot(i);
    const u8 f = flags_[s];
    if ((f & kLineValid) == 0 || (f & kLinePoisoned) == 0)
        return std::nullopt;
    // Parity caught the corruption: drop the line whatever tag it holds
    // (the probe reads the whole slot), and report its identity.
    const Addr resident = (tags_[s] * numLines_ + i) * lineSize_;
    const Eviction dropped{resident, (f & kLineDirty) != 0, true};
    clearLine(i);
    --valid_;
    return dropped;
}

u32
Molecule::poisonedLines() const
{
    u32 n = 0;
    for (u32 i = 0; i < numLines_; ++i)
        if ((flags_[slot(i)] & (kLineValid | kLinePoisoned)) ==
            (kLineValid | kLinePoisoned))
            ++n;
    return n;
}

} // namespace molcache
