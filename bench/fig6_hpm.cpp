/**
 * @file
 * Figure 6 reproduction: hit rate contribution per molecule (HPM) for
 * the Random and Randy replacement algorithms on the 12-app mixed
 * workload (6MB molecular cache, Table 2 configuration).
 *
 * HPM = (application hit rate) / (molecules its region holds).  The
 * paper's figure is log-scale per application; Randy's HPM exceeds
 * Random's for 8 of the 12 applications, and overall Randy reaches a
 * ~9% lower miss rate while using ~5% more molecules.
 *
 * Both placements run as one sweep; per-application HPM and molecule
 * counts land in each point's extra metrics via the inspect hook.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

std::string
sci(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", v);
    return buf;
}

u32
totalMolecules(const SweepPointResult &point)
{
    u32 total = 0;
    for (u32 i = 0; i < 12; ++i)
        total += static_cast<u32>(
            point.extra.at("mols." + std::to_string(i)));
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("fig6_hpm",
                  "Figure 6: hit-per-molecule, Random vs Randy, 12-app mix");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("Figure 6: hit rate contribution per molecule "
                  "(log-scale quantity; higher = better use of molecules)");

    SweepSpec spec("fig6_hpm");
    spec.molecular("Randy", table2MolecularParams(PlacementPolicy::Randy))
        .molecular("Random", table2MolecularParams(PlacementPolicy::Random))
        .workload("mixed12", mixed12Names())
        .goals(GoalSet::uniform(0.25, 12))
        .registrationGoal(0.25)
        .seeds({seed})
        .references(refs)
        .inspect([](const SimJob &, CacheModel &model, MetricMap &extra) {
            auto &cache = dynamic_cast<MolecularCache &>(model);
            for (u32 i = 0; i < 12; ++i) {
                const auto asid = static_cast<Asid>(i);
                extra["hpm." + std::to_string(i)] =
                    cache.hitPerMoleculeOf(asid);
                extra["mols." + std::to_string(i)] =
                    static_cast<double>(cache.region(asid).size());
            }
        });

    const SweepReport report = bench::runSweep(cli, spec);

    const auto &randy = report.point("Randy", "mixed12");
    const auto &random = report.point("Random", "mixed12");

    TablePrinter table({"benchmark", "HPM Randy", "HPM Random",
                        "mols Randy", "mols Random", "Randy higher?"});
    const auto names = mixed12Names();
    u32 randyWins = 0;
    for (u32 i = 0; i < names.size(); ++i) {
        const std::string idx = std::to_string(i);
        const double hpm_randy = randy.extra.at("hpm." + idx);
        const double hpm_random = random.extra.at("hpm." + idx);
        const bool win = hpm_randy > hpm_random;
        randyWins += win ? 1 : 0;
        table.row({names[i], sci(hpm_randy), sci(hpm_random),
                   std::to_string(static_cast<u32>(
                       randy.extra.at("mols." + idx))),
                   std::to_string(static_cast<u32>(
                       random.extra.at("mols." + idx))),
                   win ? "yes" : "no"});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    const double miss_randy = randy.result.qos.globalMissRate;
    const double miss_random = random.result.qos.globalMissRate;
    const u32 mols_randy = totalMolecules(randy);
    const u32 mols_random = totalMolecules(random);

    std::printf("\nRandy HPM higher for %u/12 benchmarks (paper: 8/12)\n",
                randyWins);
    std::printf("overall miss rate: Randy %.4f vs Random %.4f "
                "(Randy %+.1f%%; paper: Randy ~9%% lower)\n",
                miss_randy, miss_random,
                100.0 * (miss_randy / miss_random - 1.0));
    std::printf("molecules used:    Randy %u vs Random %u "
                "(Randy %+.1f%%; paper: Randy ~5%% more)\n",
                mols_randy, mols_random,
                100.0 * (static_cast<double>(mols_randy) / mols_random -
                         1.0));
    return 0;
}
