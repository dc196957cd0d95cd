#include "core/tile.hpp"

#include "contract/contract.hpp"
#include "util/logging.hpp"

namespace molcache {

Tile::Tile(TileId id, ClusterId cluster, MoleculeId firstMolecule,
           u32 numMolecules, u32 linesPerMol, u32 lineSize)
    : id_(id), cluster_(cluster), first_(firstMolecule),
      soaTags_(static_cast<size_t>(numMolecules) * linesPerMol, 0),
      soaTouched_(static_cast<size_t>(numMolecules) * linesPerMol, 0),
      soaFlags_(static_cast<size_t>(numMolecules) * linesPerMol +
                    kLineFlagsPad,
                0),
      free_(numMolecules)
{
    MOLCACHE_EXPECT(numMolecules > 0, "tile with no molecules");
    molecules_.reserve(numMolecules);
    // Line-major: molecule i's line li sits at li * numMolecules + i.
    for (u32 i = 0; i < numMolecules; ++i)
        molecules_.emplace_back(firstMolecule + i, id, linesPerMol,
                                lineSize, soaTags_.data() + i,
                                soaTouched_.data() + i,
                                soaFlags_.data() + i, numMolecules);
}

MoleculeId
Tile::allocate(Asid asid)
{
    if (free_ == 0)
        return kInvalidMolecule;
    for (Molecule &m : molecules_) {
        // Decommissioned molecules read as free (no ASID) but are fenced
        // out of the pool forever.
        if (m.isFree() && !m.decommissioned()) {
            m.assignTo(asid);
            --free_;
            return m.id();
        }
    }
    panic("tile free count ", free_, " but no free molecule found");
}

u32
Tile::release(MoleculeId mol)
{
    Molecule &m = molecule(mol);
    MOLCACHE_EXPECT(!m.isFree(), "releasing an already-free molecule");
    MOLCACHE_EXPECT(!m.decommissioned(),
                    "releasing a decommissioned molecule");
    const u32 dirty = m.release();
    ++free_;
    return dirty;
}

u32
Tile::decommission(MoleculeId mol)
{
    Molecule &m = molecule(mol);
    MOLCACHE_EXPECT(!m.decommissioned(), "double decommission");
    u32 dirty = 0;
    if (m.isFree()) {
        MOLCACHE_INVARIANT(free_ > 0, "tile free count underflow");
        --free_;
    } else {
        dirty = m.release();
    }
    m.markDecommissioned();
    ++decommissioned_;
    return dirty;
}

} // namespace molcache
