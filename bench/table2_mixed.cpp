/**
 * @file
 * Table 2 reproduction: average deviation from a 25% miss-rate goal for
 * the 12-application mixed workload (SPEC + NetBench + MediaBench).
 *
 * Configurations compared, as in the paper:
 *   4MB 4-way, 4MB 8-way, 8MB 4-way, 8MB 8-way traditional caches versus
 *   a 6MB molecular cache (3 clusters x 4 tiles x 512KB; 8KB molecules)
 *   with the Randy and Random replacement algorithms.  Applications are
 *   split into three groups of four, one group per tile cluster.
 *
 * Paper reference values (Table 2): 0.313, 0.310, 0.247, 0.243 for the
 * traditional caches; 0.222 (Randy) and 0.357 (Random) for the molecular
 * cache — i.e. 6MB molecular/Randy beats even the 8MB 8-way.
 *
 * All six configurations run as one parallel sweep.
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {
constexpr double kGoal = 0.25;
} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("table2_mixed",
                  "Table 2: average deviation, 12-app mixed workload, "
                  "goal 25%");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Table 2: average deviation from the 25% miss-rate goal "
                  "(12-app mix)");

    SweepSpec spec("table2_mixed");
    spec.setAssoc("4MB 4way", traditionalParams(4_MiB, 4))
        .setAssoc("4MB 8way", traditionalParams(4_MiB, 8))
        .setAssoc("8MB 4way", traditionalParams(8_MiB, 4))
        .setAssoc("8MB 8way", traditionalParams(8_MiB, 8))
        .molecular("6MB Molecular Randy",
                   table2MolecularParams(PlacementPolicy::Randy))
        .molecular("6MB Molecular Random",
                   table2MolecularParams(PlacementPolicy::Random))
        .workload("mixed12", mixed12Names())
        .goals(GoalSet::uniform(kGoal, 12))
        .registrationGoal(kGoal)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    const auto deviation = [&](const char *model) {
        return formatDouble(
            report.point(model, "mixed12").result.qos.averageDeviation, 6);
    };

    TablePrinter table({"cache type", "avg deviation", "paper"});
    table.row({"4MB 4way", deviation("4MB 4way"), "0.313261"});
    table.row({"4MB 8way", deviation("4MB 8way"), "0.309515"});
    table.row({"8MB 4way", deviation("8MB 4way"), "0.246843"});
    table.row({"8MB 8way", deviation("8MB 8way"), "0.243161"});
    table.row({"6MB Molecular Randy", deviation("6MB Molecular Randy"),
               "0.222075"});
    table.row({"6MB Molecular Random", deviation("6MB Molecular Random"),
               "0.356923"});

    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
