/**
 * @file
 * The molecular cache's per-access energy, built from the CACTI model.
 */

#ifndef MOLCACHE_POWER_REPORT_HPP
#define MOLCACHE_POWER_REPORT_HPP

#include "power/cacti.hpp"

namespace molcache {

/**
 * Energy of one molecule probe, including the molecule's array access and
 * its line/tag flight over the tile-local interconnect to the tile port.
 */
double molecularPerProbeEnergyNj(const CactiModel &model,
                                 const CacheGeometry &moleculeGeometry,
                                 u32 moleculesPerTile);

/**
 * Per-access fixed tile cost: request flight over the tile plus the ASID
 * comparison every molecule on the tile performs (paper figure 3).
 */
double molecularTileFixedEnergyNj(const CactiModel &model,
                                  const CacheGeometry &moleculeGeometry,
                                  u32 moleculesPerTile);

/**
 * Energy per molecular-cache access when @p probedMolecules molecules are
 * probed: fixed tile cost plus per-probe costs.
 *
 * @param model            power model
 * @param moleculeGeometry geometry of a single molecule (DM, 64 B lines)
 * @param moleculesPerTile molecules physically on the tile
 * @param probedMolecules  molecules actually activated by this access
 */
double molecularAccessEnergyNj(const CactiModel &model,
                               const CacheGeometry &moleculeGeometry,
                               u32 moleculesPerTile, double probedMolecules);

} // namespace molcache

#endif // MOLCACHE_POWER_REPORT_HPP
