#include "power/report.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace molcache {
namespace {

CacheGeometry
moleculeGeom()
{
    CacheGeometry g;
    g.sizeBytes = 8_KiB;
    g.associativity = 1;
    g.extraTagBits = 17;
    return g;
}

TEST(Report, MolecularEnergyLinearInProbes)
{
    const CactiModel m;
    const auto g = moleculeGeom();
    const double e0 = molecularAccessEnergyNj(m, g, 64, 0);
    const double e1 = molecularAccessEnergyNj(m, g, 64, 1);
    const double e2 = molecularAccessEnergyNj(m, g, 64, 2);
    EXPECT_GT(e0, 0.0); // fixed tile cost even with nothing probed
    EXPECT_NEAR(e2 - e1, e1 - e0, 1e-12); // linear slope
    EXPECT_NEAR(e1 - e0, molecularPerProbeEnergyNj(m, g, 64), 1e-12);
}

TEST(Report, WorstCaseTileNearTraditionalDm)
{
    // Table 4's key comparison: a fully-enabled 512KB tile (64 molecules)
    // costs the same order as an 8MB DM access — the molecular advantage
    // comes from NOT enabling everything.
    const CactiModel m;
    const double tile_worst = molecularAccessEnergyNj(m, moleculeGeom(),
                                                      64, 64);
    CacheGeometry dm;
    dm.sizeBytes = 8_MiB;
    dm.ports = 4;
    const double trad = m.evaluate(dm).readEnergyNj;
    EXPECT_GT(tile_worst, 0.5 * trad);
    EXPECT_LT(tile_worst, 1.5 * trad);
}

TEST(Report, SelectiveEnablementSavesEnergy)
{
    const CactiModel m;
    const auto g = moleculeGeom();
    // A typical partition probes ~32 molecules; that should cost well
    // under the all-enabled worst case.
    EXPECT_LT(molecularAccessEnergyNj(m, g, 64, 32),
              0.7 * molecularAccessEnergyNj(m, g, 64, 64));
}

TEST(Report, BiggerTilesCostMoreFixed)
{
    const CactiModel m;
    const auto g = moleculeGeom();
    EXPECT_GT(molecularTileFixedEnergyNj(m, g, 256),
              molecularTileFixedEnergyNj(m, g, 32));
}

} // namespace
} // namespace molcache
