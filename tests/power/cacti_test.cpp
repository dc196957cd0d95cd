#include "power/cacti.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace molcache {
namespace {

CacheGeometry
geom(Bytes size, u32 assoc, u32 ports = 1)
{
    CacheGeometry g;
    g.sizeBytes = size;
    g.associativity = assoc;
    g.ports = ports;
    return g;
}

TEST(Cacti, PowerConversion)
{
    // nJ x MHz / 1000 = W: 24.8 nJ at 199 MHz is ~4.94 W (paper table 4).
    EXPECT_NEAR(dynamicPowerWatts(24.8, 199), 4.935, 0.01);
    EXPECT_DOUBLE_EQ(dynamicPowerWatts(0, 500), 0.0);
}

TEST(Cacti, EnergyGrowsWithSize)
{
    const CactiModel m;
    double prev = 0.0;
    for (const Bytes size : {8_KiB, 64_KiB, 1_MiB, 8_MiB}) {
        const double e = m.evaluate(geom(size, 1)).readEnergyNj;
        EXPECT_GT(e, prev) << formatSize(size);
        prev = e;
    }
}

TEST(Cacti, DelayGrowsWithSize)
{
    const CactiModel m;
    const double small = m.evaluate(geom(8_KiB, 1)).cycleNs;
    const double large = m.evaluate(geom(8_MiB, 1)).cycleNs;
    EXPECT_GT(large, 2 * small);
}

TEST(Cacti, EnergyGrowsWithParallelAssociativity)
{
    const CactiModel m;
    const double e1 = m.evaluate(geom(8_MiB, 1, 4)).readEnergyNj;
    const double e2 = m.evaluate(geom(8_MiB, 2, 4)).readEnergyNj;
    const double e4 = m.evaluate(geom(8_MiB, 4, 4)).readEnergyNj;
    EXPECT_GT(e2, e1);
    EXPECT_GT(e4, e2);
    // Paper shape: 4-way costs ~1.5x the DM energy.
    EXPECT_NEAR(e4 / e1, 1.5, 0.25);
}

TEST(Cacti, HighAssociativityGoesSequential)
{
    const CactiModel m;
    const PowerTiming p4 = m.evaluate(geom(8_MiB, 4, 4));
    const PowerTiming p8 = m.evaluate(geom(8_MiB, 8, 4));
    EXPECT_EQ(p4.mode, AccessMode::Parallel);
    EXPECT_EQ(p8.mode, AccessMode::Sequential);
    // Sequential trades latency for energy: slower but cheaper than a
    // hypothetical parallel 8-way.
    EXPECT_GT(p8.cycleNs, 1.5 * p4.cycleNs);
    CacheGeometry forced = geom(8_MiB, 8, 4);
    forced.mode = AccessMode::Parallel;
    EXPECT_LT(p8.readEnergyNj, m.evaluate(forced).readEnergyNj);
}

TEST(Cacti, PortsCostEnergyAndDelay)
{
    const CactiModel m;
    const PowerTiming p1 = m.evaluate(geom(1_MiB, 4, 1));
    const PowerTiming p4 = m.evaluate(geom(1_MiB, 4, 4));
    EXPECT_GT(p4.readEnergyNj, 2 * p1.readEnergyNj);
    EXPECT_GT(p4.cycleNs, p1.cycleNs);
    EXPECT_GT(p4.areaMm2, p1.areaMm2);
}

TEST(Cacti, Table4OperatingPoints)
{
    // The calibration anchor: 8MB 4-port traditional caches should land
    // near the paper's Table 4 (tolerances are generous — shape, not
    // decimals).
    const CactiModel m;
    const PowerTiming dm = m.evaluate(geom(8_MiB, 1, 4));
    EXPECT_NEAR(dm.readEnergyNj, 24.8, 4.0);
    EXPECT_NEAR(dm.frequencyMhz(), 199, 40);
    const PowerTiming w4 = m.evaluate(geom(8_MiB, 4, 4));
    EXPECT_NEAR(dynamicPowerWatts(w4.readEnergyNj, w4.frequencyMhz()), 7.66,
                1.2);
    const PowerTiming w8 = m.evaluate(geom(8_MiB, 8, 4));
    EXPECT_LT(w8.frequencyMhz(), 130); // paper: 96 MHz
    EXPECT_LT(dynamicPowerWatts(w8.readEnergyNj, w8.frequencyMhz()), 4.5);
}

TEST(Cacti, MoleculeIsSubNanojoule)
{
    const CactiModel m;
    CacheGeometry mol = geom(8_KiB, 1);
    mol.extraTagBits = 17;
    const PowerTiming pt = m.evaluate(mol);
    EXPECT_LT(pt.readEnergyNj, 1.0);
    EXPECT_GT(pt.readEnergyNj, 0.01);
    EXPECT_LT(pt.cycleNs, 2.0);
}

TEST(Cacti, BreakdownSumsToTotal)
{
    const CactiModel m;
    const PowerTiming pt = m.evaluate(geom(2_MiB, 4, 2));
    double sum = 0.0;
    for (const auto &[name, nj] : pt.energyBreakdownNj)
        sum += nj;
    EXPECT_NEAR(sum, pt.readEnergyNj, 1e-9);
}

TEST(Cacti, WriteEnergyPositive)
{
    const CactiModel m;
    const PowerTiming pt = m.evaluate(geom(1_MiB, 2));
    EXPECT_GT(pt.writeEnergyNj, 0.0);
}

TEST(CactiDeath, DegenerateGeometry)
{
    const CactiModel m;
    CacheGeometry g = geom(Bytes{0}, 1);
    EXPECT_EXIT(m.evaluate(g), ::testing::ExitedWithCode(1), "degenerate");
}

} // namespace
} // namespace molcache
