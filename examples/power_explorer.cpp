/**
 * @file
 * Power explorer: walk the CACTI-style model (the paper's 70 nm node) over
 * cache geometries and print energy/cycle-time/power tables — the tool
 * you reach for when choosing molecule and tile sizes.
 *
 * Usage examples:
 *   power_explorer                         # default sweep
 *   power_explorer --size 64K --assoc 2    # evaluate one geometry
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "power/report.hpp"
#include "stats/table.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"

using namespace molcache;

namespace {

void
printRow(TablePrinter &table, const CactiModel &model,
         const CacheGeometry &g, const std::string &label)
{
    const PowerTiming pt = model.evaluate(g);
    table.row({label, formatSize(g.sizeBytes), std::to_string(g.associativity),
               std::to_string(g.ports), formatDouble(pt.readEnergyNj, 3),
               formatDouble(pt.cycleNs, 2),
               formatDouble(pt.frequencyMhz(), 0),
               formatDouble(dynamicPowerWatts(pt.readEnergyNj,
                                              pt.frequencyMhz()),
                            2),
               pt.mode == AccessMode::Sequential ? "seq" : "par",
               formatDouble(pt.areaMm2, 2)});
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("power_explorer",
                  "explore the analytical cache power/timing model");
    cli.addOption("size", "", "evaluate a single size (e.g. 8K, 2M)");
    cli.addOption("assoc", "1", "associativity for --size");
    cli.addOption("ports", "1", "ports for --size");
    cli.parse(argc, argv);

    const CactiModel model;
    TablePrinter table({"what", "size", "assoc", "ports", "E/read (nJ)",
                        "cycle (ns)", "freq (MHz)", "power (W)", "mode",
                        "area (mm2)"});

    if (!cli.str("size").empty()) {
        CacheGeometry g;
        g.sizeBytes = Bytes{cli.size("size")};
        g.associativity = static_cast<u32>(cli.integer("assoc"));
        g.ports = static_cast<u32>(cli.integer("ports"));
        printRow(table, model, g, "requested");
        table.print(std::cout);
        return 0;
    }

    // Molecule candidates (the paper's 8-32 KB range).
    for (const Bytes size : {8_KiB, 16_KiB, 32_KiB}) {
        CacheGeometry g;
        g.sizeBytes = size;
        g.extraTagBits = 17; // ASID + shared bit
        printRow(table, model, g, "molecule");
    }
    // Monolithic L2 candidates (the paper's baselines).
    for (const Bytes size : {1_MiB, 2_MiB, 4_MiB, 8_MiB}) {
        for (const u32 assoc : {1u, 4u, 8u}) {
            CacheGeometry g;
            g.sizeBytes = size;
            g.associativity = assoc;
            g.ports = 4;
            printRow(table, model, g, "traditional");
        }
    }
    table.print(std::cout);

    // Tile cost: what one access costs as a function of enabled molecules.
    std::printf("\nmolecular tile access energy (64 x 8KiB molecules):\n");
    CacheGeometry mol;
    mol.sizeBytes = 8_KiB;
    mol.extraTagBits = 17;
    for (const u32 probed : {1u, 8u, 32u, 64u}) {
        std::printf("  %2u molecules probed: %6.3f nJ\n", probed,
                    molecularAccessEnergyNj(model, mol, 64, probed));
    }
    return 0;
}
