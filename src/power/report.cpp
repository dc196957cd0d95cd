#include "power/report.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace molcache {

double
molecularPerProbeEnergyNj(const CactiModel &model,
                          const CacheGeometry &moleculeGeometry,
                          u32 moleculesPerTile)
{
    MOLCACHE_ASSERT(moleculesPerTile > 0, "tile with no molecules");
    const PowerTiming mol = model.evaluate(moleculeGeometry);

    // A probed molecule returns its line + tag over the tile-local
    // interconnect; the average molecule sits half a tile span away.
    const double tile_area = mol.areaMm2 * moleculesPerTile;
    const double flight_mm = 0.5 * std::sqrt(tile_area);
    const u64 bus_bits =
        static_cast<u64>(moleculeGeometry.lineSize) * 8 + 32;
    const double wire_nj = static_cast<double>(bus_bits) * flight_mm *
                           model.tech().wireCapFfPerMm * model.tech().vdd *
                           model.tech().vdd * 1e-6;
    return mol.readEnergyNj + wire_nj;
}

double
molecularTileFixedEnergyNj(const CactiModel &model,
                           const CacheGeometry &moleculeGeometry,
                           u32 moleculesPerTile)
{
    MOLCACHE_ASSERT(moleculesPerTile > 0, "tile with no molecules");
    const PowerTiming mol = model.evaluate(moleculeGeometry);

    // The request (address + ASID) is broadcast over the tile regardless
    // of how many molecules answer.
    const double tile_area = mol.areaMm2 * moleculesPerTile;
    const double flight_mm = 2.0 * std::sqrt(tile_area);
    const u64 bus_bits = moleculeGeometry.addrBits + 17;
    const double wire_nj = static_cast<double>(bus_bits) * flight_mm *
                           model.tech().wireCapFfPerMm * model.tech().vdd *
                           model.tech().vdd * 1e-6;

    // Every molecule on the tile performs the ASID comparison (17 bits:
    // 16-bit ASID + shared bit); only matching molecules proceed to the
    // tag/data arrays.
    const double asid_nj = moleculesPerTile * 17.0 *
                           model.tech().compareFjPerBit * 1e-6;
    return wire_nj + asid_nj;
}

double
molecularAccessEnergyNj(const CactiModel &model,
                        const CacheGeometry &moleculeGeometry,
                        u32 moleculesPerTile, double probedMolecules)
{
    return molecularTileFixedEnergyNj(model, moleculeGeometry,
                                      moleculesPerTile) +
           probedMolecules * molecularPerProbeEnergyNj(model,
                                                       moleculeGeometry,
                                                       moleculesPerTile);
}

} // namespace molcache
