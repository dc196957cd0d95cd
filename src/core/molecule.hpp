/**
 * @file
 * The molecule: a small direct-mapped caching unit.
 *
 * Molecules are the homogeneous building blocks of the molecular cache
 * (paper section 3).  Each is direct mapped with 64 B lines and is gated
 * by an ASID comparator: a molecule only participates in lookups whose
 * requestor ASID matches its configured ASID (figure 3 of the paper).
 * The figure's shared bit is not modelled: every region is private to
 * one application, so no molecule answers a foreign ASID.
 */

#ifndef MOLCACHE_CORE_MOLECULE_HPP
#define MOLCACHE_CORE_MOLECULE_HPP

#include <optional>
#include <vector>

#include "util/types.hpp"

namespace molcache {

/** What fill() displaced (for writeback accounting). */
struct Eviction
{
    Addr addr = 0;
    bool dirty = false;
    /** The displaced line was poisoned: its data is corrupt, so a dirty
     * copy is dropped (data loss), never written back. */
    bool poisoned = false;
};

/** @{ The flag byte of one line slot.  Line state is split into three
 * parallel tile-owned arrays (tags / recency stamps / flag bytes),
 * line-major, so the access path's tile probe reads one row per scan;
 * a molecule's own lines are a strided view of them (docs/perf.md).
 * Bits 0-2 are the valid, dirty and poisoned bits; bits 3-7 hold the
 * slot's partial tag, lineKeyOf(tag), written by every fill, so the
 * probe can match a whole row of flag bytes at once before it reads a
 * full tag.  An invalid slot is all-zero, key included. */
inline constexpr u8 kLineValid = 1u << 0;
inline constexpr u8 kLineDirty = 1u << 1;
inline constexpr u8 kLinePoisoned = 1u << 2;
inline constexpr u8 kLineKeyMask = 0xf8;

/** Partial tag kept in a valid slot's flag byte: the tag's low 5 bits,
 * in bits 3-7. */
constexpr u8
lineKeyOf(Addr tag)
{
    return static_cast<u8>((tag << 3) & kLineKeyMask);
}
/** @} */

class Molecule
{
  public:
    /**
     * Standalone molecule owning its line storage (unit tests, ad-hoc
     * construction).
     *
     * @param id       global molecule id
     * @param tile     owning tile index
     * @param numLines capacity in lines
     * @param lineSize line size in bytes
     */
    Molecule(MoleculeId id, TileId tile, u32 numLines, u32 lineSize);

    /**
     * View onto tile-owned struct-of-arrays line storage: @p tags,
     * @p touched and @p flags each point at the molecule's line-0 slot
     * inside the tile's contiguous arrays, and line i lives @p stride
     * slots further per line (Tile::lineTags gives the layout).  All
     * @p numLines viewed slots must be zero-initialized.  The pointers
     * must stay valid for the molecule's lifetime (vector heap buffers
     * survive Tile moves, so they do).
     */
    Molecule(MoleculeId id, TileId tile, u32 numLines, u32 lineSize,
             Addr *tags, Tick *touched, u8 *flags, u32 stride);

    /* Line storage is referenced by raw pointers; copying would alias
     * two molecules onto one owner's slots. Moves are fine: the owning
     * vectors' heap buffers are stable across moves. */
    Molecule(const Molecule &) = delete;
    Molecule &operator=(const Molecule &) = delete;
    Molecule(Molecule &&) = default;
    Molecule &operator=(Molecule &&) = default;

    MoleculeId id() const { return id_; }
    TileId tile() const { return tile_; }
    u32 numLines() const { return numLines_; }
    u32 lineSize() const { return lineSize_; }

    /** ASID gate (paper figure 3). */
    Asid configuredAsid() const { return asid_; }
    bool isFree() const { return asid_ == kInvalidAsid; }

    /** True if a request from @p requestor may proceed past the gate. */
    bool admits(Asid requestor) const { return asid_ == requestor; }

    /** Configure the molecule into an application's region (invalidates
     * contents: the previous owner's lines must not leak). */
    void assignTo(Asid asid);

    /** Return to the free pool; returns dirty lines dropped (writebacks). */
    u32 release();

    /**
     * Probe for @p addr.  Direct mapped: one index, one tag compare.
     * @return true on hit; marks dirty on write hits via markDirty().
     */
    bool
    lookup(Addr addr) const
    {
        const size_t s = slot(indexOf(addr));
        return (flags_[s] & kLineValid) != 0 && tags_[s] == tagOf(addr);
    }

    /** Outcome of a single hot-path probe (see probe()). */
    enum class ProbeOutcome : u8 { Miss, Hit, Poisoned };

    /**
     * Hot-path probe: parity check + tag compare of the slot @p addr
     * maps to, reading the slot once.  Poisoned means the parity check
     * tripped — the caller must scrubIfPoisoned() to drop the line and
     * learn its identity (rare, so the bookkeeping stays off this path).
     */
    ProbeOutcome
    probe(Addr addr) const
    {
        const size_t s = slot(indexOf(addr));
        const u8 f = flags_[s];
        if ((f & kLineValid) == 0)
            return ProbeOutcome::Miss;
        if ((f & kLinePoisoned) != 0) [[unlikely]]
            return ProbeOutcome::Poisoned;
        return tags_[s] == tagOf(addr) ? ProbeOutcome::Hit
                                       : ProbeOutcome::Miss;
    }

    /** Set the dirty bit of a resident line (write hit). */
    void markDirty(Addr addr);

    /** True if the line holding @p addr is resident and dirty. */
    bool
    isDirty(Addr addr) const
    {
        return lookup(addr) &&
               (flags_[slot(indexOf(addr))] & kLineDirty) != 0;
    }

    /**
     * Install the line holding @p addr, displacing whatever occupies the
     * slot.  @return the eviction if a valid line was displaced.
     * @param tick recency stamp for the LRU-Direct scheme (0 = untracked)
     */
    std::optional<Eviction> fill(Addr addr, bool dirty, Tick tick = 0);

    /** Stamp the recency of a resident line (hit path, LRU-Direct). */
    void noteTouch(Addr addr, Tick tick);

    /**
     * Recency stamp of the slot @p addr maps to, regardless of which tag
     * occupies it; nullopt when the slot is invalid (an invalid slot is
     * always the preferred LRU-Direct victim).
     */
    std::optional<Tick> slotTouchTick(Addr addr) const;

    /** Drop the line holding @p addr if resident.  @return the dropped
     * line, or nullopt when it was not resident; a poisoned line's dirty
     * data is lost, never written back. */
    std::optional<Eviction> invalidate(Addr addr);

    /** @{ Fault model (docs/fault_model.md).
     *
     * A transient flip corrupts one stored line; the corruption is
     * latent until the slot is next probed, when the parity/ECC check
     * catches it (scrubIfPoisoned) and the access is treated as a miss.
     * Hard faults trip a per-molecule failure counter; at the configured
     * threshold the cache decommissions the molecule — its ASID gate is
     * fenced to never match again (the paper's figure 3 comparator as
     * the fence bit) and it becomes permanently unallocatable. */

    /** Corrupt the line in slot @p index; true if a valid line was hit
     * (flips landing in invalid slots are harmless). */
    bool poisonLine(u32 index);

    /**
     * Parity check of the slot @p addr maps to.  If the resident line is
     * poisoned it is dropped on the spot (detected corruption reads as a
     * miss) and its identity is returned so the caller can update the
     * coherence directory and account any data loss.
     */
    std::optional<Eviction> scrubIfPoisoned(Addr addr);

    /** Currently-poisoned (corrupt but undetected) lines. */
    u32 poisonedLines() const;

    /** One hard-fault detection; @return the failure counter after it. */
    u32 noteHardFault() { return ++hardFaults_; }
    u32 hardFaults() const { return hardFaults_; }

    /** Permanently out of service; set only via Tile::decommission(). */
    bool decommissioned() const { return decommissioned_; }
    /** @} */

    /** Valid lines currently held. */
    u32 validLines() const { return valid_; }

    /** Call @p visit with the address of each resident line, in slot
     * order (coherence bookkeeping on withdrawal/reassignment; it
     * allocates nothing). */
    template <typename F>
    void
    forEachResidentLine(F &&visit) const
    {
        for (u32 i = 0; i < numLines_; ++i) {
            const size_t s = slot(i);
            if ((flags_[s] & kLineValid) != 0)
                visit((tags_[s] * numLines_ + i) * lineSize_);
        }
    }

  private:
    friend class Tile; // sole caller of markDecommissioned()

    /** Position of line @p index in the struct-of-arrays views. */
    size_t
    slot(u32 index) const
    {
        return static_cast<size_t>(index) * stride_;
    }

    /** Reset line @p index to the invalid, all-zero state — the only
     * way a slot becomes invalid, so every invalid slot reads zero. */
    void clearLine(u32 index);

    /** Invalidate every held line, stopping once none is left (free
     * molecules hold none, so reassigning one walks nothing).
     * @return dirty non-poisoned lines dropped (writebacks). */
    u32 dropAllLines();
    void markDecommissioned() { decommissioned_ = true; }

    /** Slot index / tag of @p addr.  Line size and line count are
     * powers of two, so these are shifts — a per-probe divide would
     * dominate the access hot path (docs/perf.md). */
    u32
    indexOf(Addr addr) const
    {
        return static_cast<u32>((addr >> lineShift_) & (numLines_ - 1));
    }
    Addr
    tagOf(Addr addr) const
    {
        return addr >> tagShift_;
    }

    MoleculeId id_;
    TileId tile_;
    u32 numLines_;
    u32 lineSize_;
    u32 lineShift_ = 0; ///< log2(lineSize_)
    u32 tagShift_ = 0;  ///< log2(lineSize_ * numLines_)
    Asid asid_ = kInvalidAsid;
    /** @{ Struct-of-arrays line state, indexed through slot().  Either
     * strided views into the owning tile's line-major arrays (hot
     * configuration: line i of this molecule is `stride_` =
     * molecules-per-tile slots after line i - 1, so one row holds line
     * i of every molecule on the tile) or dense views into the own*
     * vectors below (standalone construction, stride 1). */
    u32 stride_ = 1;
    Addr *tags_ = nullptr;
    Tick *touched_ = nullptr;
    u8 *flags_ = nullptr;
    std::vector<Addr> ownTags_;
    std::vector<Tick> ownTouched_;
    std::vector<u8> ownFlags_;
    /** @} */
    u32 valid_ = 0;
    u32 hardFaults_ = 0;
    bool decommissioned_ = false;
};

} // namespace molcache

#endif // MOLCACHE_CORE_MOLECULE_HPP
