/**
 * @file
 * Pins the memoized probe schedule (Region::probeSchedule, the access
 * hot path) against the reference lookup planner (planLookup) across
 * randomized membership churn — grants, withdrawals/decommissions
 * (both reach the region as removeMolecule), rehomes, shared-bit
 * toggles and row collapse — for every placement policy.  See
 * docs/perf.md.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/placement.hpp"
#include "core/region.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

constexpr u32 kTiles = 8;
constexpr u32 kMolsPerTile = 8;
constexpr u32 kMols = kTiles * kMolsPerTile;

TileId
tileOf(MoleculeId mol)
{
    return TileId{mol.value() / kMolsPerTile};
}

/** The schedule probeSchedule() promises: the reference plan with the
 * home tile's foreign shared-bit molecules appended to the home probes. */
ProbeSchedule
referenceSchedule(const Region &region,
                  const std::vector<MoleculeId> &sharedHome)
{
    const LookupPlan plan = planLookup(region, region.homeTile());
    ProbeSchedule ref;
    ref.home = plan.home.molecules;
    for (const MoleculeId m : sharedHome)
        if (!region.contains(m))
            ref.home.push_back(m);
    ref.remote = plan.remote;
    return ref;
}

void
expectSameSchedule(const ProbeSchedule &got, const ProbeSchedule &want,
                   u32 step)
{
    ASSERT_EQ(got.home, want.home) << "home probes diverge at step "
                                   << step;
    ASSERT_EQ(got.remote.size(), want.remote.size())
        << "remote tile count diverges at step " << step;
    for (size_t t = 0; t < got.remote.size(); ++t) {
        ASSERT_EQ(got.remote[t].tile, want.remote[t].tile);
        ASSERT_EQ(got.remote[t].molecules, want.remote[t].molecules);
    }
}

/** Randomized churn against one placement policy. */
void
runChurn(PlacementPolicy policy, u64 seed)
{
    Region region(Asid{1}, policy, /*lineMultiple=*/1, TileId{0},
                  ClusterId{0}, 8_KiB, /*initialRows=*/4);
    Pcg32 rng(seed);

    std::vector<MoleculeId> owned;
    std::vector<bool> isOwned(kMols, false);
    // Shared-bit molecules per tile (the cache's sharedByTile_ stand-in)
    // and the generation stamp that invalidates schedules folding them.
    std::vector<std::vector<MoleculeId>> sharedByTile(kTiles);
    u64 sharedGen = 0;

    // Initial allocation: molecules opening their own rows.
    for (u32 m = 0; m < 4; ++m) {
        const MoleculeId mol{m * kMolsPerTile}; // spread across tiles
        region.addMolecule(mol, tileOf(mol), /*initial=*/true);
        owned.push_back(mol);
        isOwned[mol.value()] = true;
    }

    for (u32 step = 0; step < 400; ++step) {
        const u32 op = rng.next32() % 10;
        if (op < 4) {
            // Grant: add a random unowned molecule.
            const MoleculeId mol{rng.next32() % kMols};
            if (!isOwned[mol.value()]) {
                region.addMolecule(mol, tileOf(mol), /*initial=*/false);
                owned.push_back(mol);
                isOwned[mol.value()] = true;
            }
        } else if (op < 7) {
            // Withdrawal / decommission: both remove from the view.
            // Removing a row's last molecule collapses the row.
            if (owned.size() > 1) {
                const size_t at = rng.next32() % owned.size();
                const MoleculeId mol = owned[at];
                region.removeMolecule(mol);
                isOwned[mol.value()] = false;
                owned.erase(owned.begin() + static_cast<long>(at));
            }
        } else if (op == 7) {
            // Context switch: re-home within the cluster.
            region.rehome(TileId{rng.next32() % kTiles});
        } else {
            // Shared-bit toggle on a random (foreign or owned) molecule.
            const MoleculeId mol{rng.next32() % kMols};
            auto &list = sharedByTile[tileOf(mol).value()];
            const auto it = std::find(list.begin(), list.end(), mol);
            if (it == list.end())
                list.push_back(mol);
            else
                list.erase(it);
            ++sharedGen;
        }

        const auto &sharedHome =
            sharedByTile[region.homeTile().value()];
        const ProbeSchedule want = referenceSchedule(region, sharedHome);
        const ProbeSchedule &got = region.probeSchedule(
            sharedGen, sharedHome.empty() ? nullptr : &sharedHome);
        expectSameSchedule(got, want, step);
        // Memoized: asking again without churn must reproduce it.
        const ProbeSchedule &again = region.probeSchedule(
            sharedGen, sharedHome.empty() ? nullptr : &sharedHome);
        expectSameSchedule(again, want, step);
    }
}

TEST(ProbeSchedule, MatchesPlanLookupRandom)
{
    runChurn(PlacementPolicy::Random, 11);
}

TEST(ProbeSchedule, MatchesPlanLookupRandy)
{
    runChurn(PlacementPolicy::Randy, 13);
}

TEST(ProbeSchedule, MatchesPlanLookupLruDirect)
{
    runChurn(PlacementPolicy::LruDirect, 15);
}

} // namespace
} // namespace molcache
