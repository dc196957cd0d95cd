/**
 * @file
 * Latency report: average memory access time (AMAT) for the traditional,
 * way-partitioned and molecular caches on the SPEC workload.
 *
 * The paper flags two latency costs of the molecular design without
 * quantifying them: the extra ASID-comparison pipeline stage on every
 * access (section 3.1) and the hierarchical multi-tile search on a tile
 * miss (section 3.3).  This report measures what those cost against what
 * the partitioning buys back in hit rate, per application.
 *
 * Latency model (cache cycles): traditional hit 1, miss +200; molecular
 * local hit = ASID stage (1) + molecule access (1), each remote tile
 * visited +4 (Ulmo hop) +2, miss +200.
 *
 * The three schemes run as one sweep against the same workload.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cache/way_partitioned.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

int
main(int argc, char **argv)
{
    CliParser cli("latency_report",
                  "AMAT: the cost of the ASID stage and hierarchical "
                  "lookup vs what partitioning buys back");
    bench::addCommonOptions(cli, 2'000'000);
    bench::addSweepFlags(cli);
    cli.addOption("size", "4M", "cache size for all schemes");
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));
    const Bytes size{cli.size("size")};

    bench::banner("AMAT (cache cycles), SPEC 4-app workload, " +
                  formatSize(size) + " caches");

    WayPartitionedParams wp;
    wp.sizeBytes = size;
    wp.associativity = 8;

    SweepSpec spec("latency_report");
    spec.setAssoc("traditional", traditionalParams(size, 8))
        .wayPartitioned("way-partitioned", wp)
        .molecular("molecular",
                   fig5MolecularParams(size, PlacementPolicy::Randy))
        .workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    std::vector<std::string> header = {"scheme"};
    for (const auto &app : spec4Names())
        header.push_back(app);
    header.push_back("overall note");
    TablePrinter table(header);

    for (const char *model : {"traditional", "way-partitioned",
                              "molecular"}) {
        const auto &point = report.point(model, "spec4");
        const SimResult &r = point.result;
        const double hits = static_cast<double>(r.localHits + r.remoteHits);
        // Only the molecular model services hits on remote tiles.
        const bool multi_tile = r.remoteHits > 0;
        const double local_share =
            hits > 0 ? static_cast<double>(r.localHits) / hits : 0.0;

        std::vector<std::string> row = {
            multi_tile ? r.cacheName
                       : r.cacheName + (std::string(model) == "traditional"
                                            ? " (shared)"
                                            : "")};
        for (u32 i = 0; i < 4; ++i) {
            const AppSummary *app = r.qos.find(static_cast<Asid>(i));
            row.push_back(app != nullptr ? formatDouble(app->amat, 1)
                                         : "-");
        }
        row.push_back(multi_tile
                          ? formatDouble(100.0 * local_share, 1) +
                                "% hits on entry tile"
                          : "single-structure lookup");
        table.row(row);
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("\nmolecular hits pay the ASID stage (+1 cycle) and remote "
                "hits pay Ulmo hops;\nthe miss-rate changes from "
                "partitioning dominate AMAT when they exceed ~0.5%%.\n"
                "note: overachievers (ammp) show HIGHER molecular AMAT by "
                "design — Algorithm 1\nsteers their miss rate UP to the "
                "goal to free molecules; the molecular cache\noptimizes "
                "goal deviation and power, not raw latency.\n");
    return 0;
}
