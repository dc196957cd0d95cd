/**
 * @file
 * The one-pass tile probe (MolecularCache::probeTile, docs/perf.md step
 * 5), checked through MolecularCache::access: partial-tag collisions are
 * settled by the full tag, every tile offset of a row is reachable
 * whatever the tile size, and poison of another region in the row is
 * masked out.
 */

#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "fault/invariant_checker.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

/** One cluster of two tiles; LRU-Direct fills invalid slots in grant
 * order, so which molecule receives a line is known up front. */
MolecularCacheParams
probeParams(u32 moleculesPerTile)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.lineSize = 64;
    p.moleculesPerTile = moleculesPerTile;
    p.tilesPerCluster = 2;
    p.clusters = 1;
    p.placement = PlacementPolicy::LruDirect;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 4;
    p.resizePeriod = 1u << 30; // fixed-capacity tests
    p.maxResizePeriod = 1u << 30;
    return p;
}

/** Address of tag @p tag at line index @p index (8 KiB molecules of 64 B
 * lines: 128 lines, so the tag starts at bit 13). */
Addr
lineAt(u64 tag, u32 index)
{
    return (tag << 13) + static_cast<Addr>(index) * 64;
}

MemAccess
read(Addr addr, u16 asid = 0)
{
    return {addr, Asid{asid}, AccessType::Read};
}

MemAccess
write(Addr addr, u16 asid = 0)
{
    return {addr, Asid{asid}, AccessType::Write};
}

/** The molecule of @p asid's region holding @p addr. */
MoleculeId
holderOf(const MolecularCache &cache, Addr addr, u16 asid = 0)
{
    MoleculeId holder = kInvalidMolecule;
    for (const auto &[tile, mols] : cache.region(Asid{asid}).byTile())
        for (const MoleculeId id : mols)
            if (cache.molecule(id).lookup(addr)) {
                EXPECT_EQ(holder, kInvalidMolecule) << "line held twice";
                holder = id;
            }
    return holder;
}

void
expectClean(const MolecularCache &cache)
{
    const auto rep = InvariantChecker::check(cache);
    EXPECT_TRUE(rep.ok()) << rep.violations.front();
    const auto dir = InvariantChecker::checkDirectory(cache);
    EXPECT_TRUE(dir.ok()) << dir.violations.front();
}

TEST(TileProbe, PartialTagTwinsHitTheirOwnMolecule)
{
    MolecularCache cache(probeParams(8));
    cache.registerApplication(Asid{0}, 0.1);
    // Tags 1, 33 and 65 share their low 5 bits, so their slots carry
    // the same partial tag and only the full tag tells them apart.
    const Addr a = lineAt(1, 3);
    const Addr b = lineAt(33, 3);
    const Addr c = lineAt(65, 3);
    cache.access(read(a));
    cache.access(read(b));
    const MoleculeId holder_a = holderOf(cache, a);
    const MoleculeId holder_b = holderOf(cache, b);
    ASSERT_NE(holder_a, kInvalidMolecule);
    ASSERT_NE(holder_b, kInvalidMolecule);
    ASSERT_NE(holder_a, holder_b);

    // A write hit marks the line dirty in the molecule the probe
    // returned; the other twin's molecule stays clean.
    for (const auto &[addr, holder, twin] :
         {std::tuple{a, holder_a, holder_b},
          std::tuple{b, holder_b, holder_a}}) {
        const AccessResult r = cache.access(write(addr));
        EXPECT_TRUE(r.hit);
        EXPECT_EQ(r.level, 0u);
        EXPECT_TRUE(cache.molecule(holder).isDirty(addr));
        EXPECT_FALSE(cache.molecule(twin).lookup(addr));
    }

    const AccessResult r = cache.access(read(c));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.level, 2u);
    expectClean(cache);
}

/** Tiles whose molecule count is not a multiple of 8 (the last mask
 * word is part used) and the paper's largest tile (32 mask words). */
class TileProbeGeometry : public ::testing::TestWithParam<u32>
{
};

TEST_P(TileProbeGeometry, HighestMoleculeOfTheTileHits)
{
    const u32 n = GetParam();
    MolecularCacheParams p = probeParams(n);
    p.initialAllocation = InitialAllocation::FullTile;
    MolecularCache cache(p);
    // Home on the cluster's last tile: the region holds ids n..2n-1.
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 1, 1);
    ASSERT_EQ(cache.region(Asid{0}).size(), n);

    // n lines at one index: LRU-Direct puts line k into molecule n + k,
    // and the partial tags repeat every 32 lines.
    const u32 index = 127; // the tile's last row
    for (u32 k = 0; k < n; ++k)
        ASSERT_FALSE(cache.access(read(lineAt(k, index))).hit);
    const MoleculeId highest{2 * n - 1};
    const Addr last = lineAt(n - 1, index);
    ASSERT_EQ(holderOf(cache, last), highest);

    const AccessResult r = cache.access(write(last));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 0u);
    EXPECT_TRUE(cache.molecule(highest).isDirty(last));
    for (u32 k = 0; k < n; ++k)
        EXPECT_TRUE(cache.access(read(lineAt(k, index))).hit) << "line " << k;
    expectClean(cache);
}

INSTANTIATE_TEST_SUITE_P(MoleculesPerTile, TileProbeGeometry,
                         ::testing::Values(12u, 256u));

TEST(TileProbe, ForeignPoisonInTheRowIsNeitherScrubbedNorCounted)
{
    MolecularCache cache(probeParams(8));
    // Two regions homed on tile 0: ASID 0 holds molecules 0-3, ASID 1
    // molecules 4-7, so their slots of one line index share a row.
    cache.registerApplication(Asid{0}, 0.1, ClusterId{0}, 0, 1);
    cache.registerApplication(Asid{1}, 0.1, ClusterId{0}, 0, 1);
    const u32 index = 5;
    const Addr mine = lineAt(1, index);
    const Addr theirs = lineAt(2, index);
    cache.access(read(mine, 0));
    cache.access(write(theirs, 1));
    const MoleculeId foreign = holderOf(cache, theirs, 1);
    ASSERT_NE(foreign, kInvalidMolecule);

    SimAccess{cache}.injectTransientFlip(foreign, index);
    const AccessResult r = cache.access(read(mine, 0));
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.level, 0u);
    EXPECT_EQ(cache.faultStats().transientFlipsDetected, 0u);
    EXPECT_EQ(cache.faultStats().dirtyLinesLost, 0u);
    EXPECT_EQ(cache.molecule(foreign).poisonedLines(), 1u);

    // The owner's own probe still meets it: parity reads it as a miss.
    EXPECT_FALSE(cache.access(read(theirs, 1)).hit);
    EXPECT_EQ(cache.faultStats().transientFlipsDetected, 1u);
    EXPECT_EQ(cache.faultStats().dirtyLinesLost, 1u);
    expectClean(cache);
}

} // namespace
} // namespace molcache
