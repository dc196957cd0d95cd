#include "core/molecule.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace molcache {
namespace {

Molecule
makeMol()
{
    return Molecule(MoleculeId{5}, TileId{1}, /*numLines=*/128,
                    /*lineSize=*/64);
}

TEST(Molecule, StartsFree)
{
    const Molecule m = makeMol();
    EXPECT_TRUE(m.isFree());
    EXPECT_EQ(m.configuredAsid(), kInvalidAsid);
    EXPECT_EQ(m.validLines(), 0u);
    EXPECT_EQ(m.id(), MoleculeId{5});
    EXPECT_EQ(m.tile(), TileId{1});
}

TEST(Molecule, AsidGate)
{
    Molecule m = makeMol();
    m.assignTo(Asid{7});
    EXPECT_TRUE(m.admits(Asid{7}));
    EXPECT_FALSE(m.admits(Asid{8}));
}

TEST(Molecule, FillThenLookup)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    EXPECT_FALSE(m.lookup(0x4000));
    EXPECT_FALSE(m.fill(0x4000, false).has_value()); // cold fill
    EXPECT_TRUE(m.lookup(0x4000));
    EXPECT_TRUE(m.lookup(0x403f)); // same 64B line
    EXPECT_FALSE(m.lookup(0x4040)); // next line
    EXPECT_EQ(m.validLines(), 1u);
}

TEST(Molecule, DirectMappedConflict)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const u64 span = 128 * 64; // lines * lineSize
    m.fill(0x0, false);
    const auto ev = m.fill(span, false); // same index, different tag
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->addr, 0x0u);
    EXPECT_FALSE(ev->dirty);
    EXPECT_FALSE(m.lookup(0x0));
    EXPECT_TRUE(m.lookup(span));
    EXPECT_EQ(m.validLines(), 1u); // replaced, not added
}

TEST(Molecule, DirtyEvictionReported)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const u64 span = 128 * 64;
    m.fill(0x40, true); // dirty
    const auto ev = m.fill(0x40 + span, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->addr, 0x40u);
}

TEST(Molecule, RefillMergesDirtyBit)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x80, true);
    EXPECT_FALSE(m.fill(0x80, false).has_value()); // refill, no eviction
    const u64 span = 128 * 64;
    const auto ev = m.fill(0x80 + span, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty); // dirty bit survived the clean refill
}

TEST(Molecule, MarkDirty)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0xc0, false);
    m.markDirty(0xc0);
    const u64 span = 128 * 64;
    EXPECT_TRUE(m.fill(0xc0 + span, false)->dirty);
}

TEST(Molecule, InvalidateReportsDirty)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x100, true);
    EXPECT_FALSE(m.invalidate(0x9999999)); // not resident
    EXPECT_TRUE(m.invalidate(0x100));      // resident + dirty
    EXPECT_FALSE(m.lookup(0x100));
    EXPECT_EQ(m.validLines(), 0u);
    m.fill(0x100, false);
    EXPECT_FALSE(m.invalidate(0x100)); // resident but clean
}

TEST(Molecule, AssignInvalidatesContents)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x200, false);
    m.assignTo(Asid{2}); // region handover must not leak lines
    EXPECT_FALSE(m.lookup(0x200));
    EXPECT_EQ(m.validLines(), 0u);
    EXPECT_EQ(m.configuredAsid(), Asid{2});
}

TEST(Molecule, ReleaseCountsDirtyLines)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x0, true);
    m.fill(0x40, false);
    m.fill(0x80, true);
    EXPECT_EQ(m.release(), 2u);
    EXPECT_TRUE(m.isFree());
    EXPECT_EQ(m.validLines(), 0u);
}

TEST(Molecule, ResidentLinesRoundTrip)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const std::vector<Addr> filled = {0x0, 0x40, 0x1000, 0x1fc0};
    for (const Addr a : filled)
        m.fill(a, false);
    std::vector<Addr> resident;
    m.forEachResidentLine([&](Addr a) { resident.push_back(a); });
    std::sort(resident.begin(), resident.end());
    EXPECT_EQ(resident, filled);
}

TEST(Molecule, ResidentLinesReconstructHighAddresses)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const Addr high = (static_cast<Addr>(3) << 34) + 5 * 64;
    m.fill(high, false);
    std::vector<Addr> resident;
    m.forEachResidentLine([&](Addr a) { resident.push_back(a); });
    ASSERT_EQ(resident.size(), 1u);
    EXPECT_EQ(resident[0], high);
}

} // namespace
} // namespace molcache
