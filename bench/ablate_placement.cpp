/**
 * @file
 * Ablation F: molecule placement policies — Random vs Randy vs the
 * paper's future-work LRU-Direct scheme (section 5: "A different scheme
 * for replacements such as an LRU-Direct scheme needs to be evaluated").
 *
 * LRU-Direct picks the region's least-recently-touched slot at the
 * address's index: the quality ceiling for molecule selection, at the
 * hardware cost of global recency state.  This bench quantifies how much
 * of that ceiling the implementable Random/Randy schemes reach, on both
 * the SPEC 4-app workload (goal 10%) and the 12-app mix (goal 25%).
 *
 * The two scenarios run as separate sweeps (their registration goals
 * differ), each fanning the three placement policies across the pool;
 * molecules held per point comes from the sweep's inspect hook.
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

constexpr PlacementPolicy kPolicies[] = {PlacementPolicy::Random,
                                         PlacementPolicy::Randy,
                                         PlacementPolicy::LruDirect};

/** Record the molecules every region holds at end of run. */
void
recordMoleculesHeld(const SimJob &job, CacheModel &model, MetricMap &extra)
{
    auto *cache = dynamic_cast<MolecularCache *>(&model);
    if (cache == nullptr)
        return;
    u32 mols = 0;
    for (u32 i = 0; i < job.profiles.size(); ++i)
        mols += cache->region(Asid{static_cast<u16>(i)}).size();
    extra["molecules_held"] = static_cast<double>(mols);
}

void
printSweep(const CliParser &cli, const SweepReport &report,
           const std::string &workload)
{
    TablePrinter table({"placement", "avg deviation", "global miss rate",
                        "molecules held"});
    for (const auto policy : kPolicies) {
        const auto &p = report.point(placementPolicyName(policy), workload);
        table.row({placementPolicyName(policy),
                   formatDouble(p.result.qos.averageDeviation, 4),
                   formatDouble(p.result.qos.globalMissRate, 4),
                   std::to_string(static_cast<u64>(
                       p.extra.at("molecules_held")))});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("ablate_placement",
                  "Ablation: Random vs Randy vs LRU-Direct placement");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    SweepSpec spec4("placement_spec4");
    for (const auto policy : kPolicies)
        spec4.molecular(placementPolicyName(policy),
                        fig5MolecularParams(4_MiB, policy));
    spec4.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs)
        .inspect(recordMoleculesHeld);

    SweepSpec mixed("placement_mixed12");
    for (const auto policy : kPolicies)
        mixed.molecular(placementPolicyName(policy),
                        table2MolecularParams(policy));
    mixed.workload("mixed12", mixed12Names())
        .goals(GoalSet::uniform(0.25, 12))
        .registrationGoal(0.25)
        .seeds({seed})
        .references(refs)
        .inspect(recordMoleculesHeld);

    const SweepReport spec4_report = bench::runSweep(cli, spec4, true);
    const SweepReport mixed_report = bench::runSweep(cli, mixed, true);

    bench::banner("Placement ablation A: SPEC 4-app, 4MiB molecular, "
                  "goal 10%");
    printSweep(cli, spec4_report, "spec4");

    bench::banner("Placement ablation B: 12-app mix, 6MiB molecular, "
                  "goal 25%");
    printSweep(cli, mixed_report, "mixed12");
    return 0;
}
