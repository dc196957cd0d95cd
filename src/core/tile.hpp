/**
 * @file
 * A tile: 32-256 molecules behind a single read/write port.
 *
 * Tiles are the physical aggregation level (paper figure 2): every
 * processor is statically assigned to a tile and all its requests enter
 * the molecular cache there.  The tile also owns the free pool that the
 * resizer draws molecules from.
 */

#ifndef MOLCACHE_CORE_TILE_HPP
#define MOLCACHE_CORE_TILE_HPP

#include <vector>

#include "contract/contract.hpp"
#include "core/molecule.hpp"
#include "util/types.hpp"

namespace molcache {

class Tile
{
  public:
    /**
     * @param id            global tile index
     * @param cluster       owning tile-cluster index
     * @param firstMolecule global id of this tile's first molecule
     * @param numMolecules  molecules on the tile
     * @param linesPerMol   lines per molecule
     * @param lineSize      line size (bytes)
     */
    Tile(TileId id, ClusterId cluster, MoleculeId firstMolecule,
         u32 numMolecules, u32 linesPerMol, u32 lineSize);

    TileId id() const { return id_; }
    ClusterId cluster() const { return cluster_; }
    u32 numMolecules() const
    {
        return static_cast<u32>(molecules_.size());
    }
    MoleculeId firstMolecule() const { return first_; }

    /** True if @p mol lives on this tile. */
    bool owns(MoleculeId mol) const
    {
        return mol >= first_ && mol < first_ + numMolecules();
    }

    /* Inline: resolved once per probe on the access hot path. */
    Molecule &
    molecule(MoleculeId mol)
    {
        MOLCACHE_EXPECT(owns(mol), "molecule ", mol, " not on tile ", id_);
        return molecules_[mol - first_];
    }
    const Molecule &
    molecule(MoleculeId mol) const
    {
        MOLCACHE_EXPECT(owns(mol), "molecule ", mol, " not on tile ", id_);
        return molecules_[mol - first_];
    }

    /** Molecules currently unassigned. */
    u32 freeCount() const { return free_; }

    /**
     * Take one free molecule and configure it for @p asid.
     * @return its id, or kInvalidMolecule if the tile is exhausted.
     */
    MoleculeId allocate(Asid asid);

    /** Return @p mol to the free pool; @return dirty lines dropped. */
    u32 release(MoleculeId mol);

    /**
     * Permanently fence @p mol out of service (hard fault): contents are
     * invalidated, the ASID gate is cleared, and the molecule can never
     * be allocated again.  A free molecule leaves the free pool; an
     * assigned one must already have been removed from its region's
     * replacement view by the caller.
     * @return dirty lines dropped (writebacks owed by the caller).
     */
    u32 decommission(MoleculeId mol);

    /** Molecules permanently out of service on this tile. */
    u32 decommissionedCount() const { return decommissioned_; }

    /** Molecules still in service (free or assigned). */
    u32 usableMolecules() const
    {
        return numMolecules() - decommissioned_;
    }

    /** @{ Struct-of-arrays tag view scanned by the access path's tile
     * probe (docs/perf.md).  All line state of the tile's molecules
     * lives in these contiguous per-tile arrays, line-major: the slot
     * of address line index @p li in molecule @p mol is
     * `li * numMolecules() + (mol - firstMolecule())`, so one row holds
     * line li of every molecule and a probe scan reads one row, not one
     * span per molecule.  Each molecule holds strided pointer views
     * (stride numMolecules()) into the same storage, so the view is
     * coherent by construction.  An invalid slot is all-zero.
     *
     * lineFlags() holds one flag byte per slot: valid, dirty and
     * poisoned bits plus the partial tag lineKeyOf(tag) in bits 3-7
     * (molecule.hpp).  The probe loads a row's flag bytes eight at a
     * time, so the array carries kLineFlagsPad bytes past the last row:
     * a word load that starts inside the last row stays in bounds.  The
     * pad bytes are zero and never written. */
    const Addr *lineTags() const { return soaTags_.data(); }
    const u8 *lineFlags() const { return soaFlags_.data(); }
    static constexpr u32 kLineFlagsPad = 8;
    /** @} */

  private:
    TileId id_;
    ClusterId cluster_;
    MoleculeId first_;
    /* SoA line state; declared before molecules_ so the arrays exist
     * when the molecule views are constructed. */
    std::vector<Addr> soaTags_;
    std::vector<Tick> soaTouched_;
    std::vector<u8> soaFlags_;
    std::vector<Molecule> molecules_;
    u32 free_;
    u32 decommissioned_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_CORE_TILE_HPP
