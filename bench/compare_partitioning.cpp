/**
 * @file
 * Partitioning-scheme comparison: molecular regions vs way-partitioned
 * (column caching, Suh et al.) vs an unpartitioned shared cache.
 *
 * Quantifies the paper's section-2 argument against way partitioning:
 * column granularity is coarse (size/associativity per step) and the
 * partition count is bounded by the associativity, so with many
 * co-runners each application gets one column — a direct-mapped sliver —
 * while the molecular cache hands out 8KB molecules.  The 12-app mix on
 * an 8-way cache is exactly that regime (12 > 8 apps is impossible; at
 * 8 apps each holds one way).
 *
 * Power context is printed alongside: the way-partitioned scheme needs
 * the full parallel-associative lookup every access.
 *
 * The three schemes run as one sweep; the molecular probe statistics
 * come from the inspect hook and the power math runs on the report.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cache/way_partitioned.hpp"
#include "power/cacti.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

int
main(int argc, char **argv)
{
    CliParser cli("compare_partitioning",
                  "molecular vs way-partitioned (column caching) vs "
                  "unpartitioned shared cache");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.addOption("size", "4M", "cache size for all three schemes");
    cli.addOption("assoc", "8", "associativity of the traditional schemes");
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));
    const Bytes size{cli.size("size")};
    const u32 assoc = static_cast<u32>(cli.integer("assoc"));

    const auto apps = spec4Names();
    const GoalSet goals = GoalSet::uniform(0.1, 4);

    // 512KiB tiles (the paper's power configuration, Table 3) rather
    // than fig5's size/4 tiles: probe energy scales with tile occupancy.
    MolecularCacheParams mp;
    mp.moleculeSize = 8_KiB;
    mp.moleculesPerTile = 64;
    mp.tilesPerCluster = 4;
    if (size % mp.tileSizeBytes() != Bytes{0} ||
        (size / mp.tileSizeBytes()) % mp.tilesPerCluster != 0)
        fatal("size must be a multiple of 2MiB clusters");
    mp.clusters = static_cast<u32>(size / mp.clusterSizeBytes());
    mp.placement = PlacementPolicy::Randy;

    WayPartitionedParams wp;
    wp.sizeBytes = size;
    wp.associativity = assoc;

    SweepSpec spec("compare_partitioning");
    spec.setAssoc("shared", traditionalParams(size, assoc))
        .wayPartitioned("way-partitioned", wp)
        .molecular("molecular", mp)
        .workload("spec4", apps)
        .goals(goals)
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            if (auto *cache = dynamic_cast<MolecularCache *>(&model)) {
                extra["avg_probes_per_access"] =
                    cache->averageProbesPerAccess();
                extra["avg_enabled_molecules"] =
                    cache->averageEnabledMolecules();
            }
        });

    const SweepReport report = bench::runSweep(cli, spec);

    const CactiModel model;
    CacheGeometry traditional_geometry;
    traditional_geometry.sizeBytes = size;
    traditional_geometry.associativity = assoc;
    traditional_geometry.ports = 4;
    const PowerTiming pt = model.evaluate(traditional_geometry);
    const double traditional_power =
        dynamicPowerWatts(pt.readEnergyNj, pt.frequencyMhz());

    // Measured average molecular power at the shared cache's frequency
    // class (~200 MHz at 8MB; the model's own DM frequency for this size).
    CacheGeometry dm_geometry;
    dm_geometry.sizeBytes = size;
    dm_geometry.ports = 4;
    const double dm_freq = model.evaluate(dm_geometry).frequencyMhz();

    const auto &mol = report.point("molecular", "spec4");
    std::printf("molecular context: %.1f molecules probed per access on "
                "average, %.1f enabled\n(the molecular power advantage "
                "appears when partitions stay lean — many co-runners per "
                "cluster, as in Table 4; with few greedy apps the regions "
                "balloon and probe energy with them)\n",
                mol.extra.at("avg_probes_per_access"),
                mol.extra.at("avg_enabled_molecules"));

    bench::banner("Partitioning comparison: SPEC 4-app workload, goal 10%, "
                  + formatSize(size) + " caches");
    TablePrinter table({"scheme", "avg deviation", "global miss rate",
                        "dynamic power (W)"});
    const struct
    {
        const char *model;
        const char *suffix;
    } rows[] = {
        {"shared", " (shared)"},
        {"way-partitioned", ""},
        {"molecular", ""},
    };
    for (const auto &row : rows) {
        const auto &point = report.point(row.model, "spec4");
        const double power =
            std::string(row.model) == "molecular"
                ? dynamicPowerWatts(point.result.avgEnergyPerAccessNj,
                                    dm_freq)
                : traditional_power;
        table.row({point.result.cacheName + row.suffix,
                   formatDouble(point.result.qos.averageDeviation, 4),
                   formatDouble(point.result.qos.globalMissRate, 4),
                   formatDouble(power, 2)});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nnote: with more co-runners than ways, column caching "
                "cannot even be configured;\nthe molecular cache hands out "
                "%s molecules instead of %s columns.\n",
                formatSize(8_KiB).c_str(),
                formatSize(size / assoc).c_str());
    return 0;
}
