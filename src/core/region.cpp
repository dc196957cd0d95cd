#include "core/region.hpp"

#include <algorithm>
#include <cstddef>

#include "contract/contract.hpp"
#include "stats/counter.hpp"

namespace molcache {

TilePlacement::TilePlacement(u32 moleculesPerTile)
    : molsPerTile_(moleculesPerTile), words_((moleculesPerTile + 7) / 8)
{
    MOLCACHE_EXPECT(moleculesPerTile > 0, "tile with no molecules");
}

size_t
TilePlacement::lowerBound(TileId tile) const
{
    return static_cast<size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), tile,
                         [](const Entry &e, TileId t) { return e.tile < t; }) -
        entries_.begin());
}

const TilePlacement::Entry *
TilePlacement::find(TileId tile) const
{
    const size_t i = lowerBound(tile);
    return i < entries_.size() && entries_[i].tile == tile ? &entries_[i]
                                                           : nullptr;
}

u64 &
TilePlacement::word(size_t index, MoleculeId mol)
{
    return membership_[index * words_ + mol.value() % molsPerTile_ / 8];
}

u64
TilePlacement::byteOf(MoleculeId mol) const
{
    return u64{0xff} << (mol.value() % molsPerTile_ % 8 * 8);
}

void
TilePlacement::add(TileId tile, MoleculeId mol)
{
    const size_t i = lowerBound(tile);
    if (i == entries_.size() || entries_[i].tile != tile) {
        entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                        Entry{tile, {}});
        membership_.insert(membership_.begin() +
                               static_cast<std::ptrdiff_t>(i * words_),
                           size_t{words_}, u64{0});
    }
    entries_[i].molecules.push_back(mol);
    word(i, mol) |= byteOf(mol);
}

void
TilePlacement::remove(TileId tile, MoleculeId mol)
{
    const size_t i = lowerBound(tile);
    MOLCACHE_EXPECT(i < entries_.size() && entries_[i].tile == tile,
                    "molecule's tile has no placement entry");
    auto &mols = entries_[i].molecules;
    mols.erase(std::find(mols.begin(), mols.end(), mol));
    word(i, mol) &= ~byteOf(mol);
    if (mols.empty()) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        const auto first = membership_.begin() +
                           static_cast<std::ptrdiff_t>(i * words_);
        membership_.erase(first, first + words_);
    }
}

const std::vector<MoleculeId> &
TilePlacement::at(TileId tile) const
{
    const Entry *e = find(tile);
    MOLCACHE_EXPECT(e != nullptr, "no molecules placed on tile");
    return e->molecules;
}

Region::Region(Asid asid, PlacementPolicy policy, u32 lineMultiple,
               TileId homeTile, ClusterId homeCluster, Bytes moleculeSize,
               u32 moleculesPerTile, u32 initialRows)
    : asid_(asid), policy_(policy), lineMultiple_(lineMultiple),
      homeTile_(homeTile), homeCluster_(homeCluster),
      moleculeSize_(moleculeSize), initialRows_(initialRows),
      byTile_(moleculesPerTile)
{
    MOLCACHE_EXPECT(lineMultiple_ >= 1, "line multiple must be >= 1");
    MOLCACHE_EXPECT(moleculeSize_ > Bytes{0}, "molecule size must be > 0");
    MOLCACHE_EXPECT(initialRows_ >= 1, "initialRows must be >= 1");
}

Region::MolEntry *
Region::findMol(MoleculeId mol)
{
    const auto it = std::lower_bound(
        mols_.begin(), mols_.end(), mol,
        [](const MolEntry &e, MoleculeId m) { return e.mol < m; });
    return it != mols_.end() && it->mol == mol ? &*it : nullptr;
}

const Region::MolEntry *
Region::findMol(MoleculeId mol) const
{
    const auto it = std::lower_bound(
        mols_.begin(), mols_.end(), mol,
        [](const MolEntry &e, MoleculeId m) { return e.mol < m; });
    return it != mols_.end() && it->mol == mol ? &*it : nullptr;
}

void
Region::addMolecule(MoleculeId mol, TileId tile, bool initial)
{
    MOLCACHE_EXPECT(!contains(mol), "molecule already in region");

    u32 row;
    if (policy_ != PlacementPolicy::Randy) {
        // Random / LRU-Direct: single-row view — every addition just
        // increases associativity.
        if (rows_.empty()) {
            rows_.emplace_back();
            rowMiss_.push_back(0);
        }
        row = 0;
    } else if (rows_.empty() || (initial && rowMax() < initialRows_)) {
        // Initial allocation: open rows up to initialRows first ...
        rows_.emplace_back();
        rowMiss_.push_back(0);
        row = rowMax() - 1;
    } else if (initial) {
        // ... then deal the rest round-robin (widen the narrowest row),
        // so every row starts with the same associativity.
        row = 0;
        for (u32 r = 1; r < rowMax(); ++r)
            if (rows_[r].size() < rows_[row].size())
                row = r;
    } else {
        // Growth: widen the rows with the highest replacement activity —
        // rows taking more misses need more associativity.  Heat is
        // normalized per way so a multi-molecule grant spreads across
        // the hot rows instead of piling onto one.
        row = 0;
        double best = -1.0;
        for (u32 r = 0; r < rowMax(); ++r) {
            const double heat = static_cast<double>(rowMiss_[r]) /
                                static_cast<double>(rows_[r].size());
            if (heat > best) {
                best = heat;
                row = r;
            }
        }
    }

    rows_[row].push_back(mol);
    const auto it = std::lower_bound(
        mols_.begin(), mols_.end(), mol,
        [](const MolEntry &e, MoleculeId m) { return e.mol < m; });
    mols_.insert(it, MolEntry{mol, tile, RowIndex{row}, 0});
    byTile_.add(tile, mol);
    ++size_;
    ++generation_;
}

void
Region::removeMolecule(MoleculeId mol)
{
    const MolEntry *entry = findMol(mol);
    MOLCACHE_EXPECT(entry != nullptr, "molecule not in region");
    const u32 row = entry->row.value();
    const TileId tile = entry->tile;

    auto &rowVec = rows_[row];
    rowVec.erase(std::find(rowVec.begin(), rowVec.end(), mol));
    if (rowVec.empty()) {
        // Delete the emptied row; later rows shift down one index, which
        // remaps addresses — harmless, since lookup probes the whole
        // region and stale lines age out through replacement.
        rows_.erase(rows_.begin() + row);
        rowMiss_.erase(rowMiss_.begin() + row);
        for (MolEntry &e : mols_)
            if (e.row.value() > row)
                --e.row;
    }

    byTile_.remove(tile, mol);

    mols_.erase(std::lower_bound(
        mols_.begin(), mols_.end(), mol,
        [](const MolEntry &e, MoleculeId m) { return e.mol < m; }));
    --size_;
    ++generation_;
}

RowIndex
Region::rowOf(Addr addr) const
{
    MOLCACHE_EXPECT(!rows_.empty(), "rowOf on empty region");
    return RowIndex{
        static_cast<u32>((addr / moleculeSize_.value()) % rowMax())};
}

MoleculeId
Region::chooseFillMolecule(Addr addr, RandomSource &rng) const
{
    MOLCACHE_EXPECT(size_ > 0, "fill into empty region");
    if (policy_ == PlacementPolicy::Randy) {
        const auto &row = rows_[rowOf(addr).value()];
        return row[rng.below(static_cast<u32>(row.size()))];
    }
    // Random: uniform over every molecule of the region.
    u32 pick = rng.below(size_);
    for (const auto &row : rows_) {
        if (pick < row.size())
            return row[pick];
        pick -= static_cast<u32>(row.size());
    }
    panic("region size bookkeeping is inconsistent");
}

MoleculeId
Region::pickWithdrawal() const
{
    if (size_ == 0)
        return kInvalidMolecule;

    if (policy_ == PlacementPolicy::Randy) {
        // Coldest row first, then the coldest molecule within it.  Rows
        // of width 1 are spared while any wider row exists: emptying a
        // row shrinks rowMax and remaps every address to a new row,
        // which costs a storm of stale-line replacements.
        bool wide_exists = false;
        for (const auto &row : rows_)
            if (row.size() > 1)
                wide_exists = true;

        i64 coldRow = -1;
        for (u32 r = 0; r < rowMax(); ++r) {
            if (wide_exists && rows_[r].size() < 2)
                continue;
            if (coldRow < 0 ||
                rowMiss_[r] < rowMiss_[static_cast<size_t>(coldRow)]) {
                coldRow = r;
            }
        }
        MOLCACHE_ENSURE(coldRow >= 0, "no withdrawable row found");
        const auto &row = rows_[static_cast<size_t>(coldRow)];
        MoleculeId best = row.front();
        u64 bestMiss = findMol(best)->miss;
        for (const MoleculeId m : row) {
            const u64 miss = findMol(m)->miss;
            if (miss < bestMiss) {
                best = m;
                bestMiss = miss;
            }
        }
        return best;
    }

    // Random / LRU-Direct: coldest molecule, ascending id on ties (the
    // entries are id-sorted, matching the std::map scan this replaced).
    MoleculeId best = mols_.front().mol;
    u64 bestMiss = mols_.front().miss;
    for (const MolEntry &e : mols_) {
        if (e.miss < bestMiss) {
            best = e.mol;
            bestMiss = e.miss;
        }
    }
    return best;
}

void
Region::noteReplacement(MoleculeId mol, Addr addr)
{
    MolEntry *entry = findMol(mol);
    MOLCACHE_EXPECT(entry != nullptr, "replacement in foreign molecule");
    ++rowMiss_[entry->row.value()];
    ++entry->miss;
    ++intervalReplacements_;
    (void)addr;
}

double
Region::intervalMissRate() const
{
    return ratio(intervalMisses_, intervalAccesses_);
}

double
Region::intervalReplacementRate() const
{
    return ratio(intervalReplacements_, intervalAccesses_);
}

void
Region::closeInterval()
{
    intervalAccesses_ = 0;
    intervalMisses_ = 0;
    intervalReplacements_ = 0;
    for (auto &v : rowMiss_)
        v = 0;
    for (MolEntry &e : mols_)
        e.miss = 0;
}

} // namespace molcache
