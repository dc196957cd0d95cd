/**
 * @file
 * Ablation A: resize scheduling schemes (paper section 3.4, "When to
 * add?").
 *
 * The paper claims: constant address-count resizing "does not aid in
 * bringing down the miss rate"; adaptive schemes do better; the global
 * adaptive scheme suits small tiles while the per-application scheme
 * works better with larger tiles (>= 2MB).  This bench sweeps the three
 * schemes over cache sizes on the 4-app SPEC workload — twelve points
 * through one parallel sweep.
 */

#include <iostream>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

const struct
{
    ResizeScheme scheme;
    const char *label;
} kSchemes[] = {
    {ResizeScheme::Constant, "constant"},
    {ResizeScheme::GlobalAdaptive, "global"},
    {ResizeScheme::PerAppAdaptive, "perapp"},
};

std::string
modelLabel(Bytes size, const char *scheme)
{
    return formatSize(size) + "/" + scheme;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("ablate_resize",
                  "Ablation: constant vs global-adaptive vs per-app "
                  "adaptive resize scheduling");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Resize-scheme ablation: average deviation, SPEC 4-app "
                  "workload, goal 10% (tile size = cache/4)");

    const Bytes sizes[] = {1_MiB, 2_MiB, 4_MiB, 8_MiB};

    SweepSpec spec("ablate_resize");
    for (const Bytes size : sizes) {
        for (const auto &s : kSchemes) {
            MolecularCacheParams p =
                fig5MolecularParams(size, PlacementPolicy::Randy);
            p.resizeScheme = s.scheme;
            spec.molecular(modelLabel(size, s.label), p);
        }
    }
    spec.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table(
        {"cache size", "tile size", "constant", "global", "perapp"});
    for (const Bytes size : sizes) {
        const size_t row = table.addRow();
        table.cell(row, 0, formatSize(size));
        table.cell(row, 1, formatSize(size / 4));
        for (size_t i = 0; i < std::size(kSchemes); ++i) {
            const auto &p =
                report.point(modelLabel(size, kSchemes[i].label), "spec4");
            table.cell(row, i + 2, p.result.qos.averageDeviation, 4);
        }
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
