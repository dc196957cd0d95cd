/**
 * @file
 * Cross-model equivalence properties: in degenerate configurations the
 * three cache models must agree, which pins down their shared semantics.
 *
 *  - a 1-molecule region is a direct-mapped cache of molecule size;
 *  - a way-partitioned cache with one registered app and no
 *    repartitioning is a plain LRU set-associative cache;
 *  - an N-molecule LruDirect region equals an N-way LRU cache with
 *    molecule-count sets... per index, which the direct-mapped
 *    equivalence below covers for N=1.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hpp"
#include "cache/way_partitioned.hpp"
#include "core/molecular_cache.hpp"
#include "util/random.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace molcache {
namespace {

TEST(ModelEquivalence, OneMoleculeRegionIsDirectMapped)
{
    // Molecular cache pinned to one 8 KiB molecule vs an 8 KiB DM cache:
    // identical hit/miss sequences on an arbitrary stream.
    MolecularCacheParams mp;
    mp.moleculeSize = 8_KiB;
    mp.moleculesPerTile = 4;
    mp.tilesPerCluster = 1;
    mp.clusters = 1;
    mp.initialAllocation = InitialAllocation::Small;
    mp.initialMolecules = 1;
    mp.resizePeriod = 1u << 30; // frozen at one molecule
    mp.maxResizePeriod = 1u << 30;
    MolecularCache mol(mp);
    mol.registerApplication(Asid{0}, 0.1);
    ASSERT_EQ(mol.region(Asid{0}).size(), 1u);

    SetAssocParams sp;
    sp.sizeBytes = 8_KiB;
    sp.associativity = 1;
    SetAssocCache dm(sp);

    Pcg32 rng(123);
    for (u32 i = 0; i < 20000; ++i) {
        const Addr addr = static_cast<Addr>(rng.below(1u << 16)) * 64;
        const bool write = rng.chance(0.3);
        const MemAccess a{addr, Asid{0},
                          write ? AccessType::Write : AccessType::Read};
        ASSERT_EQ(mol.access(a).hit, dm.access(a).hit) << "step " << i;
    }
    EXPECT_EQ(mol.stats().global().misses, dm.stats().global().misses);
    EXPECT_EQ(mol.stats().global().writebacks,
              dm.stats().global().writebacks);
}

TEST(ModelEquivalence, SoloWayPartitionedIsPlainLru)
{
    WayPartitionedParams wp;
    wp.sizeBytes = 64_KiB;
    wp.associativity = 4;
    wp.repartitionPeriod = 0;
    WayPartitionedCache part(wp);
    part.registerApplication(Asid{0}, 0.1);

    SetAssocParams sp;
    sp.sizeBytes = 64_KiB;
    sp.associativity = 4;
    SetAssocCache lru(sp);

    TraceGenerator gen(profileByName("gcc"), Asid{0}, 30000, 9);
    while (auto a = gen.next())
        ASSERT_EQ(part.access(*a).hit, lru.access(*a).hit);
    EXPECT_EQ(part.stats().global().misses, lru.stats().global().misses);
}

TEST(ModelEquivalence, PlacementPoliciesAgreeOnConflictFreeStreams)
{
    // With a working set that maps one line per molecule index, every
    // placement policy produces the same (perfect) hit behaviour.
    for (const auto policy :
         {PlacementPolicy::Random, PlacementPolicy::Randy,
          PlacementPolicy::LruDirect}) {
        MolecularCacheParams p;
        p.moleculeSize = 8_KiB;
        p.moleculesPerTile = 4;
        p.tilesPerCluster = 1;
        p.clusters = 1;
        p.placement = policy;
        p.initialAllocation = InitialAllocation::Small;
        p.initialMolecules = 2;
        p.resizePeriod = 1u << 30;
        p.maxResizePeriod = 1u << 30;
        MolecularCache cache(p);
        cache.registerApplication(Asid{0}, 0.1);
        for (u32 pass = 0; pass < 3; ++pass) {
            u32 misses = 0;
            for (Addr line = 0; line < 128; ++line) {
                if (!cache
                         .access({line * 64, Asid{0}, AccessType::Read})
                         .hit)
                    ++misses;
            }
            if (pass == 0)
                EXPECT_EQ(misses, 128u) << placementPolicyName(policy);
            else
                EXPECT_EQ(misses, 0u) << placementPolicyName(policy);
        }
    }
}

} // namespace
} // namespace molcache
