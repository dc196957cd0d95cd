#include "core/params.hpp"

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace molcache {

PlacementPolicy
parsePlacementPolicy(const std::string &text)
{
    if (text == "random")
        return PlacementPolicy::Random;
    if (text == "randy")
        return PlacementPolicy::Randy;
    if (text == "lrudirect")
        return PlacementPolicy::LruDirect;
    fatal("unknown placement policy '", text,
          "' (expected random|randy|lrudirect)");
}

std::string
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::Random:
        return "random";
      case PlacementPolicy::Randy:
        return "randy";
      case PlacementPolicy::LruDirect:
        return "lru-direct";
    }
    panic("unknown PlacementPolicy");
}

ResizeScheme
parseResizeScheme(const std::string &text)
{
    if (text == "constant")
        return ResizeScheme::Constant;
    if (text == "global")
        return ResizeScheme::GlobalAdaptive;
    if (text == "perapp")
        return ResizeScheme::PerAppAdaptive;
    fatal("unknown resize scheme '", text,
          "' (expected constant|global|perapp)");
}

std::string
resizeSchemeName(ResizeScheme s)
{
    switch (s) {
      case ResizeScheme::Constant:
        return "constant";
      case ResizeScheme::GlobalAdaptive:
        return "global";
      case ResizeScheme::PerAppAdaptive:
        return "perapp";
    }
    panic("unknown ResizeScheme");
}

void
MolecularCacheParams::validate() const
{
    if (lineSize == 0 || !isPowerOfTwo(lineSize))
        fatal("molecule line size must be a power of two");
    if (moleculeSize.value() == 0 || !isPowerOfTwo(moleculeSize.value()))
        fatal("molecule size must be a power of two");
    if (moleculeSize.value() < lineSize)
        fatal("molecule smaller than one line");
    if (moleculesPerTile == 0)
        fatal("tile needs at least one molecule");
    if (tilesPerCluster == 0 || clusters == 0)
        fatal("need at least one tile and one cluster");
    if (defaultLineMultiple == 0 || !isPowerOfTwo(defaultLineMultiple))
        fatal("region line multiple must be a power of two");
    if (defaultLineMultiple > linesPerMolecule())
        fatal("region line multiple exceeds molecule capacity");
    if (maxAllocationChunk == 0)
        fatal("maxAllocationChunk must be >= 1");
    if (resizePeriod == 0)
        fatal("resize period must be > 0");
    if (minResizePeriod == 0 || minResizePeriod > maxResizePeriod)
        fatal("bad resize period clamp");
    if (hardFaultThreshold == 0)
        fatal("hardFaultThreshold must be >= 1");
    if (!(defaultMissRateGoal > 0.0 && defaultMissRateGoal <= 1.0))
        fatal("defaultMissRateGoal must be in (0, 1], got ",
              defaultMissRateGoal);
}

} // namespace molcache
