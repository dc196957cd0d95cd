/**
 * @file
 * Ablation E: random-number-generator entropy (paper section 3.3: "The
 * ability of the random replacement algorithm to distribute the load
 * equally across all molecules is highly dependent on the entropy of the
 * random number generator implemented in hardware").
 *
 * Compares PCG32 (ideal software RNG), xorshift64* (cheap), and a 16-bit
 * Galois LFSR (a realistic minimal hardware RNG with a short period and
 * correlated bits) as the molecule selector, for both Random and Randy.
 * The six (placement, RNG) configurations run as one parallel sweep.
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
modelLabel(PlacementPolicy placement, const char *rng)
{
    return std::string(placementPolicyName(placement)) + "/" + rng;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("ablate_rng",
                  "Ablation: RNG entropy for molecule selection");
    bench::addCommonOptions(cli, kPaperTraceLength);
    bench::addSweepFlags(cli);
    cli.parse(argc, argv);
    const u64 refs = static_cast<u64>(cli.integer("refs"));
    const u64 seed = static_cast<u64>(cli.integer("seed"));

    bench::banner("RNG-entropy ablation: 4MiB molecular cache, SPEC 4-app "
                  "workload, goal 10%");

    const struct
    {
        RngKind kind;
        const char *label;
    } rngs[] = {
        {RngKind::Pcg32, "pcg32"},
        {RngKind::XorShift, "xorshift64*"},
        {RngKind::Lfsr16, "lfsr16"},
    };

    SweepSpec spec("ablate_rng");
    for (const auto placement :
         {PlacementPolicy::Random, PlacementPolicy::Randy}) {
        for (const auto &rng : rngs) {
            MolecularCacheParams p = fig5MolecularParams(4_MiB, placement);
            p.rngKind = rng.kind;
            spec.molecular(modelLabel(placement, rng.label), p);
        }
    }
    spec.workload("spec4", spec4Names())
        .goals(GoalSet::uniform(0.1, 4))
        .registrationGoal(0.1)
        .seeds({seed})
        .references(refs);

    const SweepReport report = bench::runSweep(cli, spec);

    TablePrinter table({"placement", "pcg32", "xorshift64*", "lfsr16"});
    for (const auto placement :
         {PlacementPolicy::Random, PlacementPolicy::Randy}) {
        const size_t row = table.addRow();
        table.cell(row, 0, placementPolicyName(placement));
        for (size_t i = 0; i < std::size(rngs); ++i) {
            const auto &point =
                report.point(modelLabel(placement, rngs[i].label), "spec4");
            table.cell(row, i + 1, point.result.qos.averageDeviation, 4);
        }
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
