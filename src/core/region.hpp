/**
 * @file
 * A cache region (partition): the set of molecules owned by one
 * application, plus its *replacement view*.
 *
 * The replacement view (paper figure 4) arranges the region's molecules
 * as a 2-D sparse matrix.  Rows partition the address space
 * (row = (addr / moleculeSize) mod rowMax) and each row's width is that
 * row's associativity — rows may have different widths, which is how the
 * molecular cache realizes per-line adaptive associativity.  The physical
 * placement of molecules (which tile they sit on) has no bearing on the
 * view.
 *
 * With the Random placement policy the view degenerates to a single row
 * containing every molecule.
 *
 * Hot-path design (docs/perf.md): membership changes only at resize
 * and fault events — rare next to the millions of accesses between
 * them — so all per-molecule bookkeeping lives in flat sorted vectors
 * (no node-based maps).  byTile() is the probe schedule itself: the
 * home tile's entry is probed first, the other entries in ascending
 * tile order via Ulmo (paper section 3.3).
 */

#ifndef MOLCACHE_CORE_REGION_HPP
#define MOLCACHE_CORE_REGION_HPP

#include <vector>

#include "core/molecule.hpp"
#include "core/params.hpp"
#include "util/random.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace molcache {

/**
 * Molecules per hosting tile: a flat vector of (tile, molecules)
 * entries sorted by tile.  Shaped like the std::map it replaced —
 * range-for yields pair-like entries and at()/count()/size() keep
 * working — but contiguous, so the per-access walk is cache-friendly.
 *
 * Each entry has two views of the same membership.  `molecules` is the
 * grant-order list (appended by Region::addMolecule): the poison walk,
 * the Ulmo probe charge, LRU-Direct and the snoop walk it.  membership()
 * is a byte mask for the one-pass tile probe: byte i of word w is 0xff
 * when the molecule at tile offset 8w + i (id - the tile's first id)
 * belongs to the region and 0 otherwise, laid out like a row of
 * Tile::lineFlags() loaded eight bytes at a time.  Every entry has
 * membershipWords() = ceil(moleculesPerTile / 8) words, kept in one
 * flat array parallel to the entries.
 */
class TilePlacement
{
  public:
    struct Entry
    {
        TileId tile{};
        std::vector<MoleculeId> molecules;
    };

    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }
    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Entries for @p tile; fatal contract violation when absent. */
    const std::vector<MoleculeId> &at(TileId tile) const;
    size_t count(TileId tile) const { return find(tile) ? 1u : 0u; }

    /** Words of every entry's membership mask. */
    u32 membershipWords() const { return words_; }

    /** Membership mask of @p e, an entry of this placement. */
    const u64 *
    membership(const Entry &e) const
    {
        return membership_.data() +
               static_cast<size_t>(&e - entries_.data()) * words_;
    }

  private:
    friend class Region;
    explicit TilePlacement(u32 moleculesPerTile);
    /** Index of the first entry whose tile is not below @p tile. */
    size_t lowerBound(TileId tile) const;
    const Entry *find(TileId tile) const;
    /** Append @p mol to @p tile's entry (created, sorted, when missing)
     * and set its membership byte. */
    void add(TileId tile, MoleculeId mol);
    /** Drop @p mol from @p tile's entry and clear its membership byte;
     * an emptied entry is erased. */
    void remove(TileId tile, MoleculeId mol);
    /** @p mol's membership word in entry @p index, and its byte there. */
    u64 &word(size_t index, MoleculeId mol);
    u64 byteOf(MoleculeId mol) const;

    u32 molsPerTile_;
    u32 words_;
    std::vector<Entry> entries_;  // sorted by tile
    std::vector<u64> membership_; // words_ per entry, parallel to entries_
};

class Region
{
  public:
    /**
     * @param asid         owning application
     * @param policy       Random or Randy placement
     * @param lineMultiple region line size in molecule lines (paper 3.2)
     * @param homeTile     tile of the owning processor
     * @param homeCluster  cluster of the home tile
     * @param moleculeSize molecule capacity (bytes), fixes the row hash
     * @param moleculesPerTile molecules per tile.  Molecule ids are
     *                     numbered tile by tile, so a molecule's offset
     *                     on its tile is id mod moleculesPerTile
     *                     (TilePlacement::membership).
     * @param initialRows  Randy rows opened by the initial allocation
     *                     (initial molecules are dealt round-robin across
     *                     them, so each row starts with width ~=
     *                     initial/rows).  The paper's figure 4 sketches
     *                     few rows of width 1-2; too many width-1 rows
     *                     make the region behave direct-mapped.
     */
    Region(Asid asid, PlacementPolicy policy, u32 lineMultiple,
           TileId homeTile, ClusterId homeCluster, Bytes moleculeSize,
           u32 moleculesPerTile, u32 initialRows = 8);

    Asid asid() const { return asid_; }
    TileId homeTile() const { return homeTile_; }
    ClusterId homeCluster() const { return homeCluster_; }
    u32 lineMultiple() const { return lineMultiple_; }
    PlacementPolicy policy() const { return policy_; }

    bool empty() const { return size_ == 0; }
    u32 size() const { return size_; }
    u32 rowMax() const { return static_cast<u32>(rows_.size()); }
    const std::vector<std::vector<MoleculeId>> &rows() const { return rows_; }

    /** Molecules per hosting tile, ascending tile order — the probe
     * schedule of every access (the home tile stays fixed for the
     * region's lifetime). */
    const TilePlacement &byTile() const { return byTile_; }

    /** True if @p mol belongs to this region. */
    bool contains(MoleculeId mol) const { return findMol(mol) != nullptr; }

    /**
     * Membership generation: bumped by addMolecule and removeMolecule.
     * Anything derived from the membership (the way-memo tables) is
     * stale once it changes.
     */
    u64 generation() const { return generation_; }

    /**
     * Add @p mol (hosted on @p tile) to the region.
     * During initial allocation (@p initial true) each molecule opens its
     * own row, establishing rowMax; later grants widen the row with the
     * highest replacement-miss count ("Where to add?", section 3.4).
     */
    void addMolecule(MoleculeId mol, TileId tile, bool initial);

    /** Remove @p mol from the view; empty rows are deleted (rowMax may
     * shrink — lookups stay correct because the whole region is probed). */
    void removeMolecule(MoleculeId mol);

    /** Replacement-view row of @p addr (Randy hash). */
    RowIndex rowOf(Addr addr) const;

    /**
     * Choose the molecule that receives a fill for @p addr:
     * Random — uniform over the region; Randy — uniform over the
     * molecules of the address's row.
     */
    MoleculeId chooseFillMolecule(Addr addr, RandomSource &rng) const;

    /**
     * Withdrawal candidate: the molecule holding the least replacement
     * activity this interval — per-molecule counters under Random,
     * per-row counters under Randy (section 3.4, "Where to add?").
     * @return kInvalidMolecule if the region is empty.
     */
    MoleculeId pickWithdrawal() const;

    /** Account a replacement performed into @p mol for @p addr. */
    void noteReplacement(MoleculeId mol, Addr addr);

    /** Per-access accounting (drives the resizer and HPM). */
    void
    noteAccess(bool hit)
    {
        ++accesses_;
        ++intervalAccesses_;
        if (hit)
            ++hits_;
        else
            ++intervalMisses_;
    }

    /** @{ Interval statistics consumed by the resizer. */
    u64 intervalAccesses() const { return intervalAccesses_; }
    u64 intervalMisses() const { return intervalMisses_; }
    double intervalMissRate() const;
    /**
     * Cold-miss-compensated rate: only misses that displaced a line count
     * (compulsory fills into empty slots do not indicate thrashing).  The
     * paper suggests exactly this refinement ("counters with cold miss
     * compensation", section 3.4).
     */
    double intervalReplacementRate() const;
    /** Close the interval: zero interval and per-molecule/row counters. */
    void closeInterval();
    /** @} */

    /** @{ Lifetime statistics. */
    u64 accesses() const { return accesses_; }
    u64 hits() const { return hits_; }
    /** @} */

    /** @{ Resizer per-region state (Algorithm 1). */
    double resizeGoal = 0.1;   // miss-rate goal Algorithm 1 steers towards
    double lastMissRate = 2.0; // "+inf": first interval always improves
    u32 maxAllocation = 0;     // chunk cap; clamped by the thrash clause
    u32 lastGrant = 0;         // molecules granted by the last grow
    bool lastGrantShort = false; // last grow delivered less than wanted
    u64 nextResizeTick = 0;    // per-app adaptive scheme deadline
    u64 resizePeriod = 0;      // per-app adaptive scheme period
    u64 hintWakeTick = 0;      // side-band predictive wakeup (0 = none);
                               // fires predictiveStep only, so a phase
                               // hint never perturbs the reactive cadence
    u32 thrashStreak = 0;      // consecutive intervals above the threshold
    u32 capacityFloor = 0;     // guardian fairness floor, molecules (0=off)
    /** @} */

    /** @{ Fault-degradation state (docs/fault_model.md).  A molecule
     * lost to decommissioning leaves a capacity hole; the resizer
     * re-acquires replacements from the cluster pool ahead of the normal
     * Algorithm-1 decision and tracks how many resize epochs the region
     * needs to converge back under its miss-rate goal. */
    u32 pendingReacquire = 0;   // replacements not yet re-granted
    bool recovering = false;    // above-goal since a capacity loss
    u32 recoveryEpochs = 0;     // epochs spent in the current recovery
    u32 lastRecoveryEpochs = 0; // epochs the last completed recovery took
    u64 moleculesLost = 0;      // lifetime molecules lost to faults

    /** Record the fault-loss of one owned molecule (post-removal). */
    void
    noteMoleculeLost()
    {
        ++moleculesLost;
        ++pendingReacquire;
        if (!recovering) {
            recovering = true;
            recoveryEpochs = 0;
        }
    }
    /** @} */

  private:
    /** Flat per-molecule record: row/tile/interval-miss bookkeeping that
     * used to live in three parallel std::maps. */
    struct MolEntry
    {
        MoleculeId mol{};
        TileId tile{};
        RowIndex row{};
        u64 miss = 0;
    };

    /** Binary search in the sorted mols_ vector; nullptr when absent. */
    MolEntry *findMol(MoleculeId mol);
    const MolEntry *findMol(MoleculeId mol) const;

    Asid asid_;
    PlacementPolicy policy_;
    u32 lineMultiple_;
    const TileId homeTile_;
    const ClusterId homeCluster_;
    Bytes moleculeSize_;
    u32 initialRows_;

    std::vector<std::vector<MoleculeId>> rows_;
    std::vector<u64> rowMiss_;
    std::vector<MolEntry> mols_; // sorted by mol
    TilePlacement byTile_;
    u32 size_ = 0;
    u64 generation_ = 0;

    u64 intervalAccesses_ = 0;
    u64 intervalMisses_ = 0;
    u64 intervalReplacements_ = 0;
    u64 accesses_ = 0;
    u64 hits_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_CORE_REGION_HPP
