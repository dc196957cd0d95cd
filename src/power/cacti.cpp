#include "power/cacti.hpp"

#include <algorithm>
#include <cmath>

#include "util/bits.hpp"
#include "util/logging.hpp"

namespace molcache {

namespace {

/** Every formula below is scaled by the 70 nm constants. */
constexpr const TechnologyParams &node = kTech70nm;

} // namespace

double
dynamicPowerWatts(double energyNj, double freqMhz)
{
    // nJ * MHz = mW; divide by 1000 for watts.
    return energyNj * freqMhz / 1000.0;
}

CactiModel::ArrayCost
CactiModel::costArray(u64 totalBits, u64 activeBits, u32 ports) const
{
    MOLCACHE_ASSERT(totalBits > 0 && activeBits > 0, "empty array");

    const double port_energy = 1.0 + node.portEnergyFactor * (ports - 1);
    const double port_delay = 1.0 + node.portDelayFactor * (ports - 1);
    const double port_lin = 1.0 + node.portAreaFactor * (ports - 1);

    // Organization search: subarrays of rows x cols bit cells.  Larger
    // subarrays save wire but cost bitline/wordline energy and delay;
    // the classic CACTI trade-off.  We sweep powers of two and keep the
    // lowest energy*delay^2 (delay-leaning, as CACTI's default weights).
    ArrayCost best;
    bool have_best = false;

    for (u32 rows = 32; rows <= 4096; rows *= 2) {
        for (u32 cols = 128; cols <= 8192; cols *= 2) {
            const u64 per_sub = static_cast<u64>(rows) * cols;
            const u64 subarrays = (totalBits + per_sub - 1) / per_sub;
            if (subarrays > 256)
                continue;
            // Don't organize small arrays into grossly oversized
            // subarrays — but always keep the minimal candidate legal so
            // tiny tag arrays organize too.
            if (per_sub > 8 * totalBits && !(rows == 32 && cols == 128))
                continue;

            // An access activates whole rows in as many subarrays as are
            // needed to deliver activeBits (column muxing notwithstanding,
            // every column of an activated subarray is precharged/sensed
            // against its bitline).
            const u64 active_subs =
                std::min<u64>(subarrays,
                              std::max<u64>(1, (activeBits + cols - 1) / cols));
            const double active_cols =
                static_cast<double>(active_subs) * cols;

            const double vdd = node.vdd;
            const double swing = vdd * node.bitlineSwing;

            // fJ component sums.
            const double e_bitline = active_cols * rows *
                                     node.bitcellCapFf * vdd * swing;
            const double e_wordline =
                active_cols * node.wordlineCapFf * vdd * vdd;
            const double e_sense = active_cols * node.senseAmpFj;
            const double e_decode =
                (floorLog2(rows) + ceilLog2(subarrays)) *
                node.decodeFjPerBit * static_cast<double>(active_subs);

            double energy_nj =
                (e_bitline + e_wordline + e_sense + e_decode) * 1e-6;
            energy_nj *= port_energy;

            // Area: cells plus ~30% periphery, inflated by porting.
            const double cell_mm2 = node.cellAreaUm2 * 1e-6;
            const double area =
                static_cast<double>(totalBits) * cell_mm2 * 1.3 *
                port_lin * port_lin;

            double delay_ns = node.decodeNsPerBit *
                                  (floorLog2(rows) + ceilLog2(subarrays)) +
                              node.bitlineNsPerRow * rows +
                              node.senseDelayNs;
            delay_ns *= port_delay;

            const double score = energy_nj * delay_ns * delay_ns;
            if (!have_best ||
                score < best.energyNj * best.delayNs * best.delayNs) {
                best.org = ArrayOrg{rows, cols,
                                    static_cast<u32>(subarrays), area};
                best.energyNj = energy_nj;
                best.delayNs = delay_ns;
                have_best = true;
            }
        }
    }
    MOLCACHE_ASSERT(have_best, "organization search found no candidate");
    return best;
}

double
CactiModel::wireEnergyNj(double areaMm2, u64 busBits, u32 ports) const
{
    const double port_energy = 1.0 + node.portEnergyFactor * (ports - 1);
    // Each bus bit traverses on average the half-perimeter of the array.
    const double flight_mm = 2.0 * std::sqrt(areaMm2);
    return static_cast<double>(busBits) * flight_mm * node.wireCapFfPerMm *
           node.vdd * node.vdd * 1e-6 * port_energy;
}

double
CactiModel::wireDelayNs(double areaMm2, u32 ports) const
{
    const double port_delay = 1.0 + node.portDelayFactor * (ports - 1);
    return 2.0 * std::sqrt(areaMm2) * node.wireNsPerMm * port_delay;
}

PowerTiming
CactiModel::evaluate(const CacheGeometry &g) const
{
    if (g.sizeBytes.value() == 0 || g.lineSize == 0 ||
        g.associativity == 0 ||
        g.ports == 0)
        fatal("degenerate cache geometry for power model");
    if (g.sizeBytes.value() %
            (static_cast<u64>(g.lineSize) * g.associativity) !=
        0)
        fatal("cache size not divisible by assoc*lineSize in power model");

    const u64 lines = g.sizeBytes.value() / g.lineSize;
    const u64 sets = lines / g.associativity;
    const u32 offset_bits = floorLog2(g.lineSize);
    const u32 index_bits = sets > 1 ? floorLog2(sets) : 0;
    const u32 tag_bits =
        g.addrBits - offset_bits - index_bits + g.extraTagBits + 2;

    AccessMode mode = g.mode;
    if (mode == AccessMode::Auto) {
        mode = g.associativity >= 8 ? AccessMode::Sequential
                                    : AccessMode::Parallel;
    }

    const u64 data_bits_total = g.sizeBytes.value() * 8;
    const u64 line_bits = static_cast<u64>(g.lineSize) * 8;
    const u64 data_bits_active =
        mode == AccessMode::Parallel
            ? line_bits * g.associativity // read every way, select late
            : line_bits;                  // tag resolved first: one way

    const u64 tag_bits_total = lines * tag_bits;
    const u64 tag_bits_active = static_cast<u64>(tag_bits) * g.associativity;

    const ArrayCost data = costArray(data_bits_total, data_bits_active,
                                     g.ports);
    const ArrayCost tag = costArray(tag_bits_total, tag_bits_active,
                                    g.ports);

    const double compare_nj = static_cast<double>(tag_bits_active) *
                              node.compareFjPerBit * 1e-6;
    const double output_nj = static_cast<double>(line_bits) *
                             node.outputFjPerBit * 1e-6;

    const double area = data.org.areaMm2 + tag.org.areaMm2;
    // Address and active tags plus the selected way's line travel the
    // full H-tree; under parallel access the unselected ways' lines still
    // travel the subarray-to-way-mux segment (late select), which is the
    // dominant associativity cost in large caches.
    double wire_nj = wireEnergyNj(
        area, g.addrBits + line_bits + tag_bits_active, g.ports);
    if (mode == AccessMode::Parallel && g.associativity > 1) {
        const double port_energy =
            1.0 + node.portEnergyFactor * (g.ports - 1);
        const double mux_flight_mm = 0.25 * std::sqrt(area);
        wire_nj += static_cast<double>(g.associativity - 1) *
                   static_cast<double>(line_bits) * mux_flight_mm *
                   node.wireCapFfPerMm * node.vdd * node.vdd * 1e-6 *
                   port_energy;
    }
    const double wire_ns = wireDelayNs(area, g.ports);

    PowerTiming out;
    out.mode = mode;
    out.dataOrg = data.org;
    out.tagOrg = tag.org;
    out.areaMm2 = area;

    out.readEnergyNj =
        data.energyNj + tag.energyNj + compare_nj + output_nj + wire_nj;
    // Writes skip the output driver but drive full-swing bitlines in the
    // written way; model as read minus output plus one extra line swing.
    out.writeEnergyNj = out.readEnergyNj - output_nj +
                        static_cast<double>(line_bits) *
                            node.bitcellCapFf * node.vdd * node.vdd * 1e-6;

    const double compare_ns = 0.05 + 0.01 * floorLog2(tag_bits);
    if (mode == AccessMode::Parallel) {
        // Tag and data proceed in parallel; compare/select tail.
        out.cycleNs = std::max(data.delayNs, tag.delayNs + compare_ns) +
                      wire_ns + 0.1;
    } else {
        // Phased: full tag resolution (one wire round), then the data way
        // (a second wire round) — roughly double the latency, as CACTI
        // reports for sequentially-accessed high associativities.
        out.cycleNs = (tag.delayNs + compare_ns + wire_ns) +
                      (data.delayNs + wire_ns) + 0.1;
    }

    out.energyBreakdownNj["data_array"] = data.energyNj;
    out.energyBreakdownNj["tag_array"] = tag.energyNj;
    out.energyBreakdownNj["compare"] = compare_nj;
    out.energyBreakdownNj["output"] = output_nj;
    out.energyBreakdownNj["wire"] = wire_nj;
    return out;
}

} // namespace molcache
