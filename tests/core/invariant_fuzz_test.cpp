/**
 * @file
 * Randomized operation fuzzing of the molecular cache with invariant
 * checks after every step.  Catches bookkeeping drift (molecule pool
 * accounting, region/tile consistency, ASID gating) that directed unit
 * tests can miss.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "fault/invariant_checker.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

MolecularCacheParams
fuzzParams(u64 seed)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 2;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 2;
    p.resizePeriod = 500;
    p.minResizePeriod = 100;
    p.maxResizePeriod = 5000;
    p.minIntervalSample = 50;
    p.seed = seed;
    return p;
}

/** Pool + region + molecule-gate consistency. */
void
checkInvariants(const MolecularCache &cache,
                const std::set<Asid> &registered)
{
    const auto &params = cache.params();

    // 1. Every molecule is either free or owned by exactly one live
    //    region, and free counts add up.
    u32 held = 0;
    for (const Asid asid : registered) {
        const Region &r = cache.region(asid);
        held += r.size();
        // 2. Region bookkeeping: rows hold exactly size() molecules,
        //    each configured with the region's ASID, on the tile the
        //    region thinks it is on.
        u32 in_rows = 0;
        for (const auto &row : r.rows()) {
            ASSERT_FALSE(row.empty()) << "empty replacement-view row";
            in_rows += static_cast<u32>(row.size());
        }
        ASSERT_EQ(in_rows, r.size());
        for (const auto &[tile, mols] : r.byTile()) {
            for (const MoleculeId id : mols) {
                const Molecule &m = cache.molecule(id);
                ASSERT_EQ(m.configuredAsid(), asid);
                ASSERT_EQ(m.tile(), tile);
                ASSERT_TRUE(m.admits(asid));
            }
        }
        // 3. Regions stay inside their home cluster (Ulmo's domain).
        for (const auto &[tile, mols] : r.byTile()) {
            ASSERT_EQ(ClusterId{tile.value() / params.tilesPerCluster},
                      r.homeCluster());
        }
    }
    ASSERT_EQ(held + cache.freeMolecules() + cache.decommissionedMolecules(),
              params.totalMolecules());

    // 4. Stats sanity.
    const auto &g = cache.stats().global();
    ASSERT_EQ(g.hits + g.misses, g.accesses);

    // 5. The full cross-layer audit agrees, and so does the directory.
    const auto rep = InvariantChecker::check(cache);
    ASSERT_TRUE(rep.ok()) << rep.violations.front();
    const auto dir = InvariantChecker::checkDirectory(cache);
    ASSERT_TRUE(dir.ok()) << dir.violations.front();
}

class MolecularFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(MolecularFuzz, RandomOperationSequence)
{
    const u64 seed = GetParam();
    MolecularCache cache(fuzzParams(seed));
    Pcg32 rng(seed * 77 + 1);
    std::set<Asid> registered;

    for (u32 step = 0; step < 6000; ++step) {
        // Op shares out of 97: access 80, register 5, unregister 4,
        // flip 4, decommission 4.
        const u32 op = rng.below(97);
        if (op < 80) {
            // Access from a random registered app (auto-register if none).
            Asid asid{};
            if (registered.empty()) {
                asid = Asid{static_cast<u16>(rng.below(6))};
                registered.insert(asid);
            } else {
                auto it = registered.begin();
                std::advance(it, rng.below(
                                 static_cast<u32>(registered.size())));
                asid = *it;
            }
            const Addr addr =
                static_cast<Addr>(rng.below(4096)) * 64 +
                (static_cast<Addr>(asid.value()) << 34);
            const bool write = rng.chance(0.3);
            cache.access({addr, asid,
                          write ? AccessType::Write : AccessType::Read});
            registered.insert(asid); // auto-registration side effect
        } else if (op < 85) {
            // Register a new app if room.
            const Asid asid{static_cast<u16>(rng.below(6))};
            if (!registered.count(asid)) {
                cache.registerApplication(asid, 0.05 + 0.1 * rng.unitReal());
                registered.insert(asid);
            }
        } else if (op < 89) {
            // Unregister a random app.
            if (!registered.empty()) {
                auto it = registered.begin();
                std::advance(it, rng.below(
                                 static_cast<u32>(registered.size())));
                cache.unregisterApplication(*it);
                registered.erase(it);
            }
        } else if (op < 93) {
            // Corrupt a random line (latent until the slot is probed).
            SimAccess{cache}.injectTransientFlip(
                MoleculeId{rng.below(cache.params().totalMolecules())},
                rng.below(cache.params().linesPerMolecule()));
        } else {
            // Decommission a random molecule mid-run; cap the damage at a
            // quarter of the cache so regions always have room to recover.
            if (cache.decommissionedMolecules() <
                cache.params().totalMolecules() / 4) {
                SimAccess{cache}.decommissionMolecule(
                    MoleculeId{rng.below(cache.params().totalMolecules())});
            }
        }

        if (step % 250 == 0)
            checkInvariants(cache, registered);
    }
    checkInvariants(cache, registered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MolecularFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

/** The same fuzz under every placement policy. */
class PlacementFuzz : public ::testing::TestWithParam<PlacementPolicy>
{
};

TEST_P(PlacementFuzz, AccessStormKeepsInvariants)
{
    MolecularCacheParams p = fuzzParams(9);
    p.placement = GetParam();
    MolecularCache cache(p);
    // The audit hook panic()s the storm on the first inconsistency.
    InvariantChecker::attach(cache, 2500);
    Pcg32 rng(42);
    std::set<Asid> registered;
    for (u16 a = 0; a < 4; ++a) {
        cache.registerApplication(Asid{a}, 0.1);
        registered.insert(Asid{a});
    }
    for (u32 i = 0; i < 30000; ++i) {
        const Asid asid{static_cast<u16>(rng.below(4))};
        const Addr addr = static_cast<Addr>(rng.below(8192)) * 64 +
                          (static_cast<Addr>(asid.value()) << 34);
        cache.access({addr, asid,
                      rng.chance(0.25) ? AccessType::Write
                                       : AccessType::Read});
        if (i == 10000 || i == 20000) {
            // Mid-storm molecule losses; the audit keeps watching.
            SimAccess{cache}.decommissionMolecule(
                MoleculeId{rng.below(p.totalMolecules())});
            checkInvariants(cache, registered);
        }
    }
    checkInvariants(cache, registered);
    EXPECT_GT(cache.resizeCycles(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PlacementFuzz,
                         ::testing::Values(PlacementPolicy::Random,
                                           PlacementPolicy::Randy,
                                           PlacementPolicy::LruDirect));

} // namespace
} // namespace molcache
