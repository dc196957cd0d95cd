/**
 * @file
 * CACTI-flavoured analytical cache timing / dynamic-energy model.
 *
 * Role in the reproduction: the paper derives Table 4 (power) and Table 5
 * (power-deviation product) from CACTI runs at 0.07 um.  This model
 * supplies the same outputs — dynamic energy per access (nJ), cycle time
 * (ns, hence achievable frequency) and area — for arbitrary
 * (size, associativity, line size, ports) points, including the 8-32 KB
 * direct-mapped molecules.
 *
 * Structure follows classic CACTI:
 *  - the data and tag arrays are split into subarrays; an organization
 *    search picks rows x columns minimizing an energy*delay objective;
 *  - per-access energy sums decoder, wordline, bitline, sense-amp,
 *    comparator, output-driver and global H-tree wire components;
 *  - access time is the decoder -> wordline -> bitline -> sense -> compare
 *    -> output path plus global wire flight;
 *  - multi-ported cells inflate energy, delay and area;
 *  - high associativities may use *sequential* (phased) access: tag first,
 *    then only the matching data way — less energy, roughly double the
 *    latency.  CACTI calls this "sequential access"; the paper's 8 MB
 *    8-way point (96 MHz vs ~200 MHz, yet lower power) is this regime, and
 *    the model switches to it automatically at associativity >= 8.
 *
 * Absolute accuracy is not the goal (the original authors' absolute watts
 * came from a 1996-era tool); monotone, physically-plausible scaling is.
 * The 70 nm node is calibrated so the 8 MB traditional caches land near
 * Table 4's operating points.
 */

#ifndef MOLCACHE_POWER_CACTI_HPP
#define MOLCACHE_POWER_CACTI_HPP

#include <map>
#include <string>

#include "power/tech.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace molcache {

/** Tag-vs-data sequencing. */
enum class AccessMode { Auto, Parallel, Sequential };

/** A cache (or molecule) geometry to evaluate. */
struct CacheGeometry
{
    Bytes sizeBytes = 8_MiB;
    u32 associativity = 1;
    u32 lineSize = 64;
    u32 ports = 1;
    /** Physical address width modelled in the tag path. */
    u32 addrBits = 40;
    /** Extra tag bits (e.g. the molecular ASID field + shared bit). */
    u32 extraTagBits = 0;
    AccessMode mode = AccessMode::Auto;
};

/** One internal SRAM array after organization search. */
struct ArrayOrg
{
    u32 rows = 0;
    u32 cols = 0;
    u32 subarrays = 0;
    double areaMm2 = 0.0;
};

/** Model outputs for one geometry. */
struct PowerTiming
{
    double readEnergyNj = 0.0;
    double writeEnergyNj = 0.0;
    double cycleNs = 0.0;
    double areaMm2 = 0.0;
    /** Resolved access mode (never Auto). */
    AccessMode mode = AccessMode::Parallel;
    ArrayOrg dataOrg;
    ArrayOrg tagOrg;
    /** Component breakdown of the read energy (nJ), for reports. */
    std::map<std::string, double> energyBreakdownNj;

    double frequencyMhz() const { return cycleNs > 0 ? 1000.0 / cycleNs : 0; }
};

/** Dynamic power in watts at @p freqMhz given @p energyNj per access. */
double dynamicPowerWatts(double energyNj, double freqMhz);

/** The model at the paper's 70 nm node (power/tech.hpp). */
class CactiModel
{
  public:
    /** Evaluate a geometry; fatal() on malformed geometry. */
    PowerTiming evaluate(const CacheGeometry &geometry) const;

    const TechnologyParams &tech() const { return kTech70nm; }

  private:
    struct ArrayCost
    {
        ArrayOrg org;
        double energyNj = 0.0; // per access, active portion
        double delayNs = 0.0;  // decode->sense path
    };

    /**
     * Organize an array of @p totalBits with @p activeBits read per
     * access, and cost one access.
     */
    ArrayCost costArray(u64 totalBits, u64 activeBits, u32 ports) const;

    /** Global H-tree cost across @p areaMm2 carrying @p busBits. */
    double wireEnergyNj(double areaMm2, u64 busBits, u32 ports) const;
    double wireDelayNs(double areaMm2, u32 ports) const;
};

} // namespace molcache

#endif // MOLCACHE_POWER_CACTI_HPP
