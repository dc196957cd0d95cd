/**
 * @file
 * Graceful-degradation curve: QoS vs. molecule fault rate.
 *
 * The molecular structure's reliability story (docs/fault_model.md):
 * hard faults fence off individual molecules, the resizer re-acquires
 * capacity for the wounded regions, and the miss-rate-goal machinery
 * re-converges.  This bench sweeps the fraction of hard-faulted
 * molecules from 0% to 25% (faults land in the middle half of the run —
 * the sweep engine's default fault window) on the 4-app SPEC workload
 * and reports the achieved average deviation from the miss-rate goals,
 * molecules lost, recovery grants and the worst re-convergence time —
 * the degradation should be graceful (deviation creeping up with the
 * fault rate), not a cliff.
 */

#include <iostream>

#include "bench_common.hpp"
#include "core/molecular_cache.hpp"
#include "fault/fault_injector.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

std::string
rateLabel(double rate)
{
    return formatDouble(rate, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("degradation_curve",
                  "Graceful degradation: average goal deviation vs. "
                  "fraction of hard-faulted molecules");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.addOption("size", "2M", "total cache size");
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));
    const Bytes size{cli.size("size")};

    bench::banner("Degradation curve: SPEC 4-app workload, goal 10%, "
                  "hard faults in the middle half of the run");

    const double rates[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25};

    SweepSpec spec("degradation_curve");
    const MolecularCacheParams params =
        fig5MolecularParams(size, PlacementPolicy::Randy);
    for (const double rate : rates) {
        if (rate == 0.0) {
            spec.molecular(rateLabel(rate), params);
        } else {
            FaultScheduleSpec faults;
            faults.hardFraction = rate;
            spec.molecular(rateLabel(rate), params, faults);
        }
    }
    spec.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"fault rate", "avg deviation", "global miss",
                        "lost", "regrants", "reconv epochs",
                        "recovering"});
    for (const double rate : rates) {
        const SimResult &r = report.point(rateLabel(rate), "spec4").result;
        const size_t row = table.addRow();
        table.cell(row, 0, formatDouble(rate, 2));
        table.cell(row, 1, r.qos.averageDeviation, 4);
        table.cell(row, 2, r.qos.globalMissRate, 4);
        table.cell(row, 3, r.moleculesDecommissioned);
        table.cell(row, 4, r.recoveryGrants);
        table.cell(row, 5, static_cast<u64>(r.maxReconvergenceEpochs));
        table.cell(row, 6, static_cast<u64>(r.regionsStillRecovering));
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
