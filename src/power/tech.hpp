/**
 * @file
 * Technology parameters for the analytical cache timing/energy model.
 *
 * The paper evaluates power with CACTI at 0.07 um.  molcache ships a
 * CACTI-flavoured analytical model (power/cacti.hpp) whose per-component
 * formulas are scaled by the constants below.  They describe the
 * paper's one node, 70 nm, calibrated so an 8 MB direct-mapped 4-port
 * cache reproduces the paper's Table 4 operating point (~24.8 nJ/access,
 * ~5 ns cycle => 4.93 W at 199 MHz) and an 8 KB molecule lands in the
 * sub-nanojoule regime reported for small caches by Mamidipaka & Dutt.
 */

#ifndef MOLCACHE_POWER_TECH_HPP
#define MOLCACHE_POWER_TECH_HPP

namespace molcache {

/** Electrical constants of a node (already include layout geometry). */
struct TechnologyParams
{
    /** Supply voltage (V). */
    double vdd;
    /** Bitline swing fraction of vdd during a read. */
    double bitlineSwing;
    /** Bitline capacitance per cell on the line (fF). */
    double bitcellCapFf;
    /** Wordline capacitance per cell (fF). */
    double wordlineCapFf;
    /** Sense-amp energy per column (fJ). */
    double senseAmpFj;
    /** Decoder energy per address bit (fJ). */
    double decodeFjPerBit;
    /** Comparator energy per tag bit (fJ). */
    double compareFjPerBit;
    /** Global wire capacitance per mm (fF). */
    double wireCapFfPerMm;
    /** Global wire delay per mm (ns), repeated. */
    double wireNsPerMm;
    /** SRAM cell area (um^2), single port. */
    double cellAreaUm2;
    /** Fixed sense + latch delay (ns). */
    double senseDelayNs;
    /** Decoder delay per doubling of rows (ns). */
    double decodeNsPerBit;
    /** Bitline delay per row on the line (ns). */
    double bitlineNsPerRow;
    /** Output driver energy per data bit (fJ). */
    double outputFjPerBit;

    /** Extra energy factor per additional port. */
    double portEnergyFactor;
    /** Extra delay factor per additional port. */
    double portDelayFactor;
    /** Extra linear cell dimension factor per additional port. */
    double portAreaFactor;
};

/** The 70 nm node: the calibration anchor (power/cacti.cpp, Table 4). */
inline constexpr TechnologyParams kTech70nm = {
    .vdd = 1.1,
    .bitlineSwing = 0.25,
    .bitcellCapFf = 1.8,
    .wordlineCapFf = 1.4,
    .senseAmpFj = 16.0,
    .decodeFjPerBit = 95.0,
    .compareFjPerBit = 24.0,
    .wireCapFfPerMm = 310.0,
    .wireNsPerMm = 0.062,
    .cellAreaUm2 = 0.70,
    .senseDelayNs = 0.22,
    .decodeNsPerBit = 0.042,
    .bitlineNsPerRow = 0.0015,
    .outputFjPerBit = 24.0,
    .portEnergyFactor = 0.70,
    .portDelayFactor = 0.15,
    .portAreaFactor = 0.45,
};

} // namespace molcache

#endif // MOLCACHE_POWER_TECH_HPP
