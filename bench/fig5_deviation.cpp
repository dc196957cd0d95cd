/**
 * @file
 * Figure 5 reproduction: average deviation from the miss-rate goal
 * versus cache size for traditional caches (DM/2/4/8-way) and the
 * molecular cache (Random and Randy), on the 4-benchmark SPEC workload.
 *
 * Graph A: a 10% goal for all four of art, ammp, parser, mcf.
 * Graph B: a 10% goal for art, ammp, parser only (mcf runs without a
 *          goal and is excluded from the deviation average; its partition
 *          still resizes against the default goal).
 *
 * The paper's headline shapes: traditional deviation falls slowly with
 * size/associativity; molecular deviation drops sharply once enough
 * molecules are available — at 4 MB in graph A and 2 MB in graph B.
 *
 * All 48 points (6 cache kinds x 4 sizes x 2 goal graphs) run as one
 * SweepSpec across threads; the two graphs are the sweep's
 * workload axis, each carrying its own GoalSet.
 */

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

const char *const kKinds[] = {"DM", "2-way", "4-way", "8-way",
                              "Mol(Random)", "Mol(Randy)"};

std::string
modelLabel(const char *kind, Bytes size)
{
    return std::string(kind) + "@" + formatSize(size);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("fig5_deviation",
                  "Figure 5: average deviation from the miss-rate goal vs "
                  "cache size");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.addOption("goal", "0.1", "per-application miss-rate goal");
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));
    const double goal = cli.real("goal");

    const std::vector<Bytes> sizes = {1_MiB, 2_MiB, 4_MiB, 8_MiB};

    // spec4Names() order: art(0), ammp(1), parser(2), mcf(3).
    GoalSet goals_a;
    for (u16 i = 0; i < 4; ++i)
        goals_a.set(Asid{i}, goal);
    GoalSet goals_b;
    for (u16 i = 0; i < 3; ++i)
        goals_b.set(Asid{i}, goal);

    SweepSpec spec("fig5_deviation");
    for (const Bytes size : sizes) {
        spec.setAssoc(modelLabel("DM", size), traditionalParams(size, 1));
        spec.setAssoc(modelLabel("2-way", size),
                      traditionalParams(size, 2));
        spec.setAssoc(modelLabel("4-way", size),
                      traditionalParams(size, 4));
        spec.setAssoc(modelLabel("8-way", size),
                      traditionalParams(size, 8));
        // One application per tile, as the paper assigns processors to
        // tiles (registerApplications lays ASID i on tile i here).
        spec.molecular(modelLabel("Mol(Random)", size),
                       fig5MolecularParams(size, PlacementPolicy::Random));
        spec.molecular(modelLabel("Mol(Randy)", size),
                       fig5MolecularParams(size, PlacementPolicy::Randy));
    }
    spec.workload("graphA", spec4Names(), goals_a)
        .workload("graphB", spec4Names(), goals_b)
        .seeds({seed})
        .references(refs)
        .registrationGoal(goal);

    const SweepReport report = bench::runSweep(cli, spec);

    for (const bool graph_b : {false, true}) {
        bench::banner(graph_b
                          ? "Figure 5 Graph B: goal 10% for art/ammp/parser "
                            "(mcf goal-less)"
                          : "Figure 5 Graph A: goal 10% for all four");
        const std::string workload = graph_b ? "graphB" : "graphA";

        TablePrinter table({"cache size", "DM", "2-way", "4-way", "8-way",
                            "Mol(Random)", "Mol(Randy)"});
        for (const Bytes size : sizes) {
            const size_t row = table.addRow();
            table.cell(row, 0, formatSize(size));
            for (size_t k = 0; k < std::size(kKinds); ++k) {
                const auto &point =
                    report.point(modelLabel(kKinds[k], size), workload);
                table.cell(row, k + 1,
                           point.result.qos.averageDeviation, 4);
            }
        }
        if (cli.flag("csv"))
            table.printCsv(std::cout);
        else
            table.print(std::cout);
    }
    return 0;
}
