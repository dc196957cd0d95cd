/**
 * @file
 * Table 5 reproduction: the power-deviation product (PDP), the paper's
 * combined QoS+power metric.  PDP = dynamic power (W) x average
 * deviation from the miss-rate goal, on the 12-app mixed workload.
 *
 * Rows follow the paper: the 8MB 4-way and 8MB 8-way traditional caches
 * against the 6MB molecular cache (Randy), with the molecular power
 * computed at the same frequency as the traditional cache in the row.
 *
 * Paper reference: 8MB 4way PDP 1.890 vs molecular 0.909;
 *                  8MB 8way PDP 0.870 vs molecular 0.425.
 *
 * The three simulations fan out as one sweep; the CACTI power math runs
 * afterwards on the aggregated report.
 */

#include <iostream>

#include "bench_common.hpp"
#include "power/cacti.hpp"
#include "sim/experiment.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

int
main(int argc, char **argv)
{
    CliParser cli("table5_pdp",
                  "Table 5: power-deviation product, mixed workload");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    SweepSpec spec("table5_pdp");
    spec.setAssoc("8MB 4way", traditionalParams(8_MiB, 4))
        .setAssoc("8MB 8way", traditionalParams(8_MiB, 8))
        .molecular("6MB Molecular Randy",
                   table2MolecularParams(PlacementPolicy::Randy))
        .workload("mixed12", mixed12Names())
        .goals(GoalSet::uniform(0.25, 12))
        .registrationGoal(0.25)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    const auto &mol = report.point("6MB Molecular Randy", "mixed12");
    const double mol_dev = mol.result.qos.averageDeviation;
    const double mol_avg_nj = mol.result.avgEnergyPerAccessNj;

    const CactiModel model;

    bench::banner("Table 5: power-deviation product (goal 25%, 12-app mix; "
                  "molecular = 6MB Randy at the row's frequency)");
    TablePrinter table({"cache type", "deviation", "power (W)", "PDP",
                        "mol PDP", "paper PDP/mol"});

    for (const u32 assoc : {4u, 8u}) {
        const std::string label =
            std::string("8MB ") + std::to_string(assoc) + "way";
        const double dev =
            report.point(label, "mixed12").result.qos.averageDeviation;

        CacheGeometry g;
        g.sizeBytes = 8_MiB;
        g.associativity = assoc;
        g.ports = 4;
        const PowerTiming pt = model.evaluate(g);
        const double f = pt.frequencyMhz();
        const double p = dynamicPowerWatts(pt.readEnergyNj, f);
        const double pdp = powerDeviationProduct(p, dev);
        const double mol_pdp = powerDeviationProduct(
            dynamicPowerWatts(mol_avg_nj, f), mol_dev);

        table.row({label, formatDouble(dev, 4), formatDouble(p, 2),
                   formatDouble(pdp, 3), formatDouble(mol_pdp, 3),
                   assoc == 4 ? "1.890 / 0.909" : "0.870 / 0.425"});
    }

    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
