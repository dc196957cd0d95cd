/**
 * @file
 * Table 1 reproduction: inter-application interference on a shared
 * 1 MB 4-way L2.
 *
 * The paper's motivating experiment: art, ammp, parser and mcf run alone,
 * in pairs, and all four together; per-application miss rates shift with
 * the co-runner mix.  Paper reference values are printed beside the
 * measured ones.  Absolute agreement is approximate (our traces are
 * synthetic); the interference *shape* — who suffers and with whom — is
 * the reproduction target.
 *
 * The eleven combos are the workload axis of one sweep against a single
 * shared-cache model point.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"

using namespace molcache;

namespace {

struct Combo
{
    std::vector<std::string> apps;
    /** Paper's Table 1 miss rates, in apps[] order (NaN = not listed). */
    std::vector<double> paper;
};

const std::vector<Combo> kCombos = {
    {{"art"}, {0.064}},
    {{"mcf"}, {0.668}},
    {{"ammp"}, {0.008}},
    {{"parser"}, {0.086}},
    {{"art", "mcf"}, {0.069, 0.691}},
    {{"art", "ammp"}, {0.065, 0.009}},
    {{"art", "parser"}, {0.065, 0.134}},
    {{"mcf", "ammp"}, {0.702, 0.012}},
    {{"mcf", "parser"}, {0.684, 0.247}},
    {{"ammp", "parser"}, {0.009, 0.091}},
    {{"art", "mcf", "ammp", "parser"}, {0.734, 0.688, 0.013, 0.253}},
};

std::string
comboLabel(const Combo &combo)
{
    std::string label;
    for (const auto &a : combo.apps)
        label += (label.empty() ? "" : "+") + a;
    return label;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("table1_interference",
                  "Table 1: miss-rate interference on a shared 1MB 4-way L2");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Table 1: miss rate depends on concurrently running apps "
                  "(1MB 4-way shared L2)");

    SweepSpec spec("table1_interference");
    spec.setAssoc("1MB-4way", traditionalParams(1_MiB, 4));
    for (const Combo &combo : kCombos)
        spec.workload(comboLabel(combo), combo.apps);
    spec.seeds({seed}).references(refs); // Table 1 has no goals.

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"workload", "app", "miss rate", "paper"});
    for (const Combo &combo : kCombos) {
        const std::string label = comboLabel(combo);
        const SimResult &res = report.point("1MB-4way", label).result;
        for (size_t i = 0; i < combo.apps.size(); ++i) {
            // find(): a zero-traffic app has no summary; print "-"
            // rather than abort the whole table.
            const AppSummary *app = res.qos.find(static_cast<Asid>(i));
            const size_t row = table.addRow();
            table.cell(row, 0, i == 0 ? label : std::string());
            table.cell(row, 1, combo.apps[i]);
            if (app != nullptr)
                table.cell(row, 2, app->missRate, 3);
            else
                table.cell(row, 2, std::string("-"));
            table.cell(row, 3, formatDouble(combo.paper[i], 3));
        }
    }

    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
