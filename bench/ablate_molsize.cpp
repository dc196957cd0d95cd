/**
 * @file
 * Ablation D: molecule size (the paper motivates 8-32KB molecules from
 * Mamidipaka & Dutt's small-cache energy data).
 *
 * Sweeping the molecule size at a fixed 4MiB total capacity trades
 * allocation granularity (small molecules resize precisely) against
 * per-probe energy and lookup fan-out.  Reports deviation, measured
 * energy per access, and the worst-case access energy (from the sweep's
 * inspect hook).
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

int
main(int argc, char **argv)
{
    CliParser cli("ablate_molsize", "Ablation: molecule size sweep");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Molecule-size ablation: 4MiB molecular cache, SPEC "
                  "4-app workload, goal 10%");

    const Bytes mol_sizes[] = {8_KiB, 16_KiB, 32_KiB};

    SweepSpec spec("ablate_molsize");
    for (const Bytes mol_size : mol_sizes) {
        MolecularCacheParams p;
        p.moleculeSize = mol_size;
        p.tilesPerCluster = 4;
        p.clusters = 1;
        p.moleculesPerTile = static_cast<u32>(1_MiB / mol_size);
        p.placement = PlacementPolicy::Randy;
        spec.molecular(formatSize(mol_size), p);
    }
    spec.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            auto &cache = dynamic_cast<MolecularCache &>(model);
            extra["worst_case_energy_nj"] = cache.worstCaseAccessEnergyNj();
        });

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"molecule", "mols/tile", "avg deviation",
                        "avg energy/access (nJ)", "worst case (nJ)"});
    for (const Bytes mol_size : mol_sizes) {
        const auto &p = report.point(formatSize(mol_size), "spec4");
        table.row({formatSize(mol_size),
                   std::to_string(static_cast<u32>(1_MiB / mol_size)),
                   formatDouble(p.result.qos.averageDeviation, 4),
                   formatDouble(p.result.avgEnergyPerAccessNj, 3),
                   formatDouble(p.extra.at("worst_case_energy_nj"), 3)});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
