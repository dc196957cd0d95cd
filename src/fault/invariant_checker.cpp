#include "fault/invariant_checker.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "contract/contract.hpp"
#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "util/logging.hpp"

namespace molcache {

u64 InvariantChecker::auditsRun_ = 0;

namespace {

std::string
molName(MoleculeId id)
{
    return "molecule " + std::to_string(id.value());
}

} // namespace

InvariantChecker::Report
InvariantChecker::check(const MolecularCache &cache)
{
    Report rep;
    const MolecularCacheParams &p = cache.params();
    const auto fail = [&rep](std::string msg) {
        rep.violations.push_back(std::move(msg));
    };

    // Region side: build the ownership map and audit every replacement
    // view on the way.
    std::map<MoleculeId, Asid> owner;
    std::vector<u64> expected(
        (static_cast<size_t>(p.moleculesPerTile) + 7) / 8);
    for (const Asid asid : cache.registeredAsids()) {
        const Region &region = cache.region(asid);
        const std::string who =
            "region asid=" + std::to_string(asid.value());

        u64 row_total = 0;
        for (const auto &row : region.rows()) {
            row_total += row.size();
            for (const MoleculeId id : row) {
                ++rep.checksRun;
                const auto [it, fresh] = owner.emplace(id, asid);
                if (!fresh)
                    fail(molName(id) + " owned by both asid=" +
                         std::to_string(it->second.value()) + " and asid=" +
                         std::to_string(asid.value()));
                ++rep.checksRun;
                if (!region.contains(id))
                    fail(who + " row holds " + molName(id) +
                         " but contains() denies it");

                const Molecule &m = cache.molecule(id);
                ++rep.checksRun;
                if (m.isFree())
                    fail(who + " claims free " + molName(id));
                else if (m.configuredAsid() != asid)
                    fail(molName(id) + " gate asid=" +
                         std::to_string(m.configuredAsid().value()) +
                         " mismatches owning " + who);
                ++rep.checksRun;
                if (m.decommissioned())
                    fail(who + " still holds decommissioned " + molName(id));
            }
        }
        ++rep.checksRun;
        if (row_total != region.size())
            fail(who + " rows hold " + std::to_string(row_total) +
                 " molecules but size()=" + std::to_string(region.size()));

        // One check of the per-tile view: its totals, and each entry's
        // membership mask, which must be derived from the entry's list
        // (0xff at the tile offset of each listed molecule, zero
        // elsewhere).
        const TilePlacement &placed = region.byTile();
        u64 tile_total = 0;
        for (const TilePlacement::Entry &e : placed) {
            tile_total += e.molecules.size();
            const Tile &tile = cache.tile(e.tile);
            std::fill(expected.begin(), expected.end(), 0);
            for (const MoleculeId id : e.molecules) {
                if (!tile.owns(id)) {
                    fail(who + " lists " + molName(id) + " under tile " +
                         std::to_string(e.tile.value()));
                    continue;
                }
                const u32 offset = id - tile.firstMolecule();
                expected[offset / 8] |= u64{0xff} << (offset % 8 * 8);
            }
            if (!std::equal(expected.begin(), expected.end(),
                            placed.membership(e)))
                fail(who + " membership mask of tile " +
                     std::to_string(e.tile.value()) +
                     " disagrees with its molecule list");
        }
        ++rep.checksRun;
        if (tile_total != region.size())
            fail(who + " byTile holds " + std::to_string(tile_total) +
                 " molecules but size()=" + std::to_string(region.size()));
    }

    // Tile/molecule side: gate state vs. free-pool counters, line
    // bookkeeping, and the fence on decommissioned molecules.
    u64 owned_total = 0;
    u64 free_total = 0;
    u64 dec_total = 0;
    for (u32 t = 0; t < p.totalTiles(); ++t) {
        const Tile &tile = cache.tile(TileId{t});
        u32 free_here = 0;
        u32 dec_here = 0;
        const MoleculeId first = tile.firstMolecule();
        for (MoleculeId id = first; id < first + tile.numMolecules(); ++id) {
            const Molecule &m = cache.molecule(id);

            ++rep.checksRun;
            u32 resident = 0;
            m.forEachResidentLine([&](Addr) { ++resident; });
            if (resident != m.validLines())
                fail(molName(id) + " validLines()=" +
                     std::to_string(m.validLines()) + " but " +
                     std::to_string(resident) + " resident lines");

            if (m.decommissioned()) {
                ++dec_here;
                ++rep.checksRun;
                if (m.validLines() != 0)
                    fail("decommissioned " + molName(id) +
                         " still holds valid lines");
                ++rep.checksRun;
                if (!m.isFree())
                    fail("decommissioned " + molName(id) +
                         " gate not fenced (asid set)");
                ++rep.checksRun;
                if (owner.count(id))
                    fail("decommissioned " + molName(id) +
                         " still in a replacement view");
                continue;
            }

            if (m.isFree()) {
                ++free_here;
                ++rep.checksRun;
                if (owner.count(id))
                    fail("free " + molName(id) +
                         " appears in a replacement view");
            } else {
                ++owned_total;
                ++rep.checksRun;
                if (!owner.count(id))
                    fail(molName(id) + " gated for asid=" +
                         std::to_string(m.configuredAsid().value()) +
                         " but owned by no region");
            }
        }
        ++rep.checksRun;
        if (free_here != tile.freeCount())
            fail("tile " + std::to_string(t) + " freeCount()=" +
                 std::to_string(tile.freeCount()) + " but " +
                 std::to_string(free_here) + " molecules read free");
        ++rep.checksRun;
        if (dec_here != tile.decommissionedCount())
            fail("tile " + std::to_string(t) + " decommissionedCount()=" +
                 std::to_string(tile.decommissionedCount()) + " but " +
                 std::to_string(dec_here) + " molecules read decommissioned");
        free_total += free_here;
        dec_total += dec_here;
    }

    // Conservation: every molecule is owned, free, or decommissioned.
    ++rep.checksRun;
    if (owned_total + free_total + dec_total != p.totalMolecules())
        fail("conservation broken: owned=" + std::to_string(owned_total) +
             " + free=" + std::to_string(free_total) + " + decommissioned=" +
             std::to_string(dec_total) + " != total=" +
             std::to_string(p.totalMolecules()));
    ++rep.checksRun;
    if (free_total != cache.freeMolecules())
        fail("cache freeMolecules()=" + std::to_string(cache.freeMolecules()) +
             " but tiles hold " + std::to_string(free_total));

    // Decommission tallies must agree across every layer that tracks them.
    u64 ulmo_dec = 0;
    for (u32 c = 0; c < p.clusters; ++c)
        ulmo_dec += cache.ulmo(ClusterId{c}).decommissions();
    ++rep.checksRun;
    if (ulmo_dec != dec_total)
        fail("ulmos record " + std::to_string(ulmo_dec) +
             " decommissions but tiles hold " + std::to_string(dec_total));
    ++rep.checksRun;
    if (cache.faultStats().moleculesDecommissioned != dec_total)
        fail("fault stats record " +
             std::to_string(cache.faultStats().moleculesDecommissioned) +
             " decommissions but tiles hold " + std::to_string(dec_total));

    return rep;
}

InvariantChecker::Report
InvariantChecker::checkDirectory(const MolecularCache &cache)
{
    Report rep;
    const MolecularCacheParams &p = cache.params();
    const CoherenceDirectory &dir = cache.directory();
    const auto fail = [&rep](std::string msg) {
        rep.violations.push_back(std::move(msg));
    };

    // Every resident copy, by line: the clusters holding it.  Copies
    // are counted per region (ASID) too: two regions of one cluster may
    // each hold a private copy, but one region holds a line once.
    std::unordered_map<u64, u32> lines;
    std::map<std::pair<u64, u16>, u32> regionCopies;
    u64 copies = 0;
    const u32 lines_per_mol = p.linesPerMolecule();
    for (u32 t = 0; t < p.totalTiles(); ++t) {
        const Tile &tile = cache.tile(TileId{t});
        const u32 bit = 1u << tile.cluster().value();
        const MoleculeId first = tile.firstMolecule();
        for (MoleculeId id = first; id < first + tile.numMolecules(); ++id) {
            const u16 asid = cache.molecule(id).configuredAsid().value();
            cache.molecule(id).forEachResidentLine([&](Addr la) {
                ++rep.checksRun;
                if (++regionCopies[{la, asid}] > 1)
                    fail("line " + std::to_string(la) + " sits in two "
                         "molecules of the region of ASID " +
                         std::to_string(asid));
                // The slot's flag byte carries the line's partial tag.
                const u64 line = la / p.lineSize;
                const size_t slot =
                    line % lines_per_mol * tile.numMolecules() + (id - first);
                if ((tile.lineFlags()[slot] & kLineKeyMask) !=
                    lineKeyOf(line / lines_per_mol))
                    fail("line " + std::to_string(la) + " in " +
                         molName(id) + " has a flag byte key that "
                         "mismatches its tag");
                lines[la] |= bit;
                ++copies;
            });
        }
    }

    // Each resident line's chunk names its clusters (the masks are
    // grow-only, so it may name more), and until some chunk is shared
    // each mask names exactly one.
    ++rep.checksRun;
    if (dir.entries() != copies)
        fail("directory counts " + std::to_string(dir.entries()) +
             " line copies but " + std::to_string(copies) +
             " are resident");
    for (const auto &[la, clusters] : lines) {
        ++rep.checksRun;
        const u32 chunk = dir.chunkHolders(LineAddr{la});
        if ((chunk & clusters) != clusters)
            fail("line " + std::to_string(la) + " is resident in "
                 "clusters " + std::to_string(clusters) +
                 " but its chunk holds " + std::to_string(chunk));
        if (!dir.shared() && std::popcount(chunk) != 1)
            fail("unshared directory, but line " + std::to_string(la) +
                 "'s chunk holds " + std::to_string(chunk));
    }
    return rep;
}

void
InvariantChecker::attach(MolecularCache &cache, u64 everyAccesses)
{
    SimAccess{cache}.setAuditHook(
        everyAccesses,
        [last = contract::counters().total()](
            const MolecularCache &c) mutable {
            ++auditsRun_;
            Report rep = check(c);
            // Contract violations swallowed by a counting handler since
            // the previous audit still fail the audit: the structure may
            // look repaired, but an operation broke its contract.
            const u64 now = contract::counters().total();
            if (now != last) {
                rep.violations.push_back(
                    std::to_string(now - last) +
                    " contract violation(s) since the previous audit");
                last = now;
            }
            if (rep.ok())
                return;
            std::string all;
            for (const auto &v : rep.violations)
                all += "\n  - " + v;
            panic("invariant audit failed (", rep.violations.size(),
                  " violation(s)):", all);
        });
}

} // namespace molcache
