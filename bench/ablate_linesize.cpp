/**
 * @file
 * Ablation C: region line size (paper section 3.2, "Varying the Line
 * Size").
 *
 * A region may fetch 2 or 4 consecutive 64B lines per miss (stored as a
 * replacement unit in one molecule).  Larger units help spatially-local
 * applications (CJPEG, epic: strided macroblock walks) and hurt
 * pointer-chasing ones (mcf) by polluting the region with never-used
 * neighbours.  Each application here runs ALONE on a molecular cache so
 * the line-size effect is isolated — 15 solo runs (3 line sizes x 5
 * apps) fanned out as one sweep.
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

std::string
modelLabel(u32 lineMultiple)
{
    return std::to_string(64 * lineMultiple) + "B";
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("ablate_linesize",
                  "Ablation: region line-size multiple (64/128/256B units)");
    bench::addCommonOptions(cli, 1'000'000);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Region line-size ablation: per-application miss rate, "
                  "each app alone on a 2MiB molecular cache");

    const struct
    {
        const char *app;
        const char *expect;
    } rows[] = {
        {"CJPEG", "64B-strided macroblocks: 128B units prefetch usefully"},
        {"epic", "128B-strided planes: wider units fetch skipped lines"},
        {"decode", "sequential streaming: bigger lines help strongly"},
        {"mcf", "pointer chase: bigger lines pollute"},
        {"NAT", "hot table + random probes: mild unit effects"},
    };

    SweepSpec spec("ablate_linesize");
    for (const u32 multiple : {1u, 2u, 4u}) {
        MolecularCacheParams p =
            fig5MolecularParams(2_MiB, PlacementPolicy::Randy);
        p.defaultLineMultiple = multiple;
        spec.molecular(modelLabel(multiple), p);
    }
    for (const auto &r : rows)
        spec.workload(r.app, {r.app});
    spec.goals(GoalSet::uniform(0.1, 1))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"benchmark", "64B", "128B", "256B", "behaviour"});
    for (const auto &r : rows) {
        const size_t row = table.addRow();
        table.cell(row, 0, std::string(r.app));
        u32 col = 1;
        for (const u32 multiple : {1u, 2u, 4u}) {
            const auto &p = report.point(modelLabel(multiple), r.app);
            const AppSummary *app = p.result.qos.find(Asid{0});
            if (app != nullptr)
                table.cell(row, col++, app->missRate, 4);
            else
                table.cell(row, col++, std::string("-"));
        }
        table.cell(row, 4, std::string(r.expect));
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
