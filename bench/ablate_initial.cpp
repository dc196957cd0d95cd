/**
 * @file
 * Ablation B: initial partition size ("Ground Zero", paper section 3.4).
 *
 * The paper observes that starting partitions very small forces frequent
 * early repartitioning, and settles on half a tile per partition.  This
 * bench compares Small (2 molecules), HalfTile and FullTile starts on the
 * SPEC workload, reporting both the final deviation and how much resize
 * work was performed (from the sweep's inspect hook).
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
    CliParser cli("ablate_initial",
                  "Ablation: initial partition allocation policy");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.addOption("size", "4M", "total molecular cache size");
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));
    const Bytes size{cli.size("size")};

    bench::banner("Initial-allocation ablation (" + formatSize(size) +
                  " molecular cache, SPEC 4-app workload, goal 10%)");

    const struct
    {
        InitialAllocation kind;
        const char *label;
    } rows[] = {
        {InitialAllocation::Small, "small (2 molecules)"},
        {InitialAllocation::HalfTile, "half tile (paper default)"},
        {InitialAllocation::FullTile, "full tile"},
    };

    SweepSpec spec("ablate_initial");
    for (const auto &r : rows) {
        MolecularCacheParams p =
            fig5MolecularParams(size, PlacementPolicy::Randy);
        p.initialAllocation = r.kind;
        spec.molecular(r.label, p);
    }
    spec.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            auto &cache = dynamic_cast<MolecularCache &>(model);
            extra["molecules_granted"] =
                static_cast<double>(cache.resizer().granted());
            extra["molecules_withdrawn"] =
                static_cast<double>(cache.resizer().withdrawn());
        });

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"initial allocation", "avg deviation",
                        "molecules granted", "molecules withdrawn"});
    for (const auto &r : rows) {
        const auto &p = report.point(r.label, "spec4");
        table.row({r.label,
                   formatDouble(p.result.qos.averageDeviation, 4),
                   std::to_string(static_cast<u64>(
                       p.extra.at("molecules_granted"))),
                   std::to_string(static_cast<u64>(
                       p.extra.at("molecules_withdrawn")))});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
