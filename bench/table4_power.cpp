/**
 * @file
 * Table 4 reproduction: CACTI-style power at 70 nm.
 *
 * For each traditional 8MB cache (DM/2/4/8-way, 4 ports) the model gives
 * energy/access and cycle time; power = E x f at the cache's own
 * frequency.  The 8MB molecular cache (Table 3 configuration: 4 clusters
 * x 4 tiles x 512KB, 8KB molecules) is evaluated two ways, as in the
 * paper:
 *   - worst case: every molecule of a tile enabled on each access;
 *   - average:    measured molecules probed per access in a mixed
 *                 workload run (12 apps over 4 clusters).
 * Both are converted to power at the frequency of the traditional cache
 * in the same row.
 *
 * Paper reference rows (Table 4):
 *   DM   199MHz 4.93W | mol worst 5.29W | mol avg 4.85W
 *   2way 205MHz 5.95W | mol worst 5.45W | mol avg 4.99W
 *   4way 206MHz 7.66W | mol worst 5.46W | mol avg 5.00W
 *   8way  96MHz 3.58W | mol worst 2.55W | mol avg 2.34W
 * and the headline: ~29% power advantage versus the equally-performing
 * 4-way traditional cache.
 *
 * The measured molecular run goes through the sweep engine (a one-point
 * sweep, so --threads/--json behave like every other bench); the CACTI
 * table is computed from its report.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "power/report.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

int
main(int argc, char **argv)
{
    CliParser cli("table4_power",
                  "Table 4: power of 8MB traditional caches vs the 8MB "
                  "molecular cache at 70nm");
    bench::addCommonOptions(cli, 1'000'000);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Table 3 configuration: molecular 8MB = 4 clusters x 4 "
                  "tiles x 512KB (64 x 8KB molecules, 1 port per tile "
                  "cluster); traditional 8MB with 4 ports");

    // Mixed-workload run on the 8MB molecular cache for the measured
    // average energy per access.
    MolecularCacheParams mp;
    mp.moleculeSize = 8_KiB;
    mp.moleculesPerTile = 64;
    mp.tilesPerCluster = 4;
    mp.clusters = 4;
    mp.placement = PlacementPolicy::Randy;

    SweepSpec spec("table4_power");
    spec.molecular("8MB Molecular Randy", mp)
        .workload("mixed12", mixed12Names())
        .goals(GoalSet::uniform(0.25, 12))
        .registrationGoal(0.25)
        .seeds({seed})
        .references(refs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            auto &cache = dynamic_cast<MolecularCache &>(model);
            extra["worst_case_energy_nj"] = cache.worstCaseAccessEnergyNj();
            extra["avg_probes_per_access"] = cache.averageProbesPerAccess();
            extra["avg_enabled_molecules"] =
                cache.averageEnabledMolecules();
        });

    const SweepReport report = bench::runSweep(cli, spec);
    const auto &mol = report.point("8MB Molecular Randy", "mixed12");

    const double worst_nj = mol.extra.at("worst_case_energy_nj");
    const double avg_nj = mol.result.avgEnergyPerAccessNj;

    const CactiModel model(TechNode::Nm70);

    bench::banner("Table 4: power at 70nm (mol avg from measured " +
                  std::to_string(refs) + "-ref mixed run)");
    TablePrinter table({"cache type", "freq (MHz)", "power (W)",
                        "mol worst (W)", "mol avg (W)", "paper P/worst/avg"});

    const struct
    {
        u32 assoc;
        const char *label;
        const char *paper;
    } rows[] = {
        {1, "8MB DM", "4.93 / 5.29 / 4.85"},
        {2, "8MB 2way", "5.95 / 5.45 / 4.99"},
        {4, "8MB 4way", "7.66 / 5.46 / 5.00"},
        {8, "8MB 8way", "3.58 / 2.55 / 2.34"},
    };

    double four_way_power = 0.0;
    double four_way_mol_avg = 0.0;
    double four_way_mol_worst = 0.0;
    for (const auto &row : rows) {
        CacheGeometry g;
        g.sizeBytes = 8_MiB;
        g.associativity = row.assoc;
        g.ports = 4;
        const PowerTiming pt = model.evaluate(g);
        const double f = pt.frequencyMhz();
        const double p = dynamicPowerWatts(pt.readEnergyNj, f);
        const double mol_worst = dynamicPowerWatts(worst_nj, f);
        const double mol_avg = dynamicPowerWatts(avg_nj, f);
        if (row.assoc == 4) {
            four_way_power = p;
            four_way_mol_avg = mol_avg;
            four_way_mol_worst = mol_worst;
        }
        table.row({row.label, formatDouble(f, 0), formatDouble(p, 2),
                   formatDouble(mol_worst, 2), formatDouble(mol_avg, 2),
                   row.paper});
    }

    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nmeasured molecular energy/access: worst %.2f nJ, "
                "avg %.2f nJ (avg %.1f molecules probed, %.1f enabled)\n",
                worst_nj, avg_nj, mol.extra.at("avg_probes_per_access"),
                mol.extra.at("avg_enabled_molecules"));
    std::printf("power advantage vs the 8MB 4-way, worst case "
                "(the paper's ~29%% headline): %.1f%%\n",
                100.0 * (1.0 - four_way_mol_worst / four_way_power));
    std::printf("power advantage vs the 8MB 4-way, measured average: "
                "%.1f%%\n",
                100.0 * (1.0 - four_way_mol_avg / four_way_power));
    return 0;
}
