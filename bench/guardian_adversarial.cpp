/**
 * @file
 * QoS-guardian adversarial drill: the four-application mix from
 * src/workload/adversarial.hpp (phaseflip, hog, bursty, steady) run
 * twice on the same molecular cache geometry — once with the bare
 * Algorithm 1 control plane and once with the guardian enabled — and
 * compared side by side.
 *
 * What the table should show (docs/algorithm1.md, "Guardrails"):
 *  - the hog's unreachable goal is flagged Infeasible with a reported
 *    shortfall instead of silently inflating forever;
 *  - the phase-flipper's delta sign flips stay within the configured
 *    bound (oscillation events fire, the dead-band widens);
 *  - the steady victim never drops below its capacity floor;
 *  - epochs-to-goal / stuck expose anything past the watchdog budget.
 *
 * The adversaries are hand-built AccessSources, not benchmark profiles,
 * so this binary drives Simulator::run directly rather than going
 * through the profile-keyed sweep engine; --json writes the canonical
 * schema-versioned SimResult document of the guardian-on run (the CI
 * telemetry artifact).  The drill gates itself: it prints a FAIL: line
 * and exits non-zero unless the hog is flagged infeasible with a
 * shortfall and no region is stuck.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/molecular_cache.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "workload/adversarial.hpp"

using namespace molcache;

namespace {

const std::vector<AdversaryKind> kMix = {
    AdversaryKind::PhaseFlip,
    AdversaryKind::Hog,
    AdversaryKind::Bursty,
    AdversaryKind::Steady,
};

struct DrillConfig
{
    u64 refs = 0;
    u64 seed = 1;
    double goal = 0.10;
    double hogGoal = 0.02;
    u32 floor = 2;
};

GoalSet
drillGoals(const DrillConfig &cfg)
{
    GoalSet goals;
    for (size_t i = 0; i < kMix.size(); ++i) {
        const double goal =
            kMix[i] == AdversaryKind::Hog ? cfg.hogGoal : cfg.goal;
        goals.set(Asid{static_cast<u16>(i)}, goal);
    }
    return goals;
}

SimResult
runDrill(const DrillConfig &cfg, bool guardianOn)
{
    MolecularCacheParams p;
    // Defaults are already the 2 MiB cluster (4 tiles x 64 x 8 KiB) the
    // adversary footprints are tuned against; per-app periods so the
    // guardian's period backoff is exercised too.
    p.resizeScheme = ResizeScheme::PerAppAdaptive;
    p.seed = cfg.seed;
    p.guardian.enabled = guardianOn;
    p.guardian.floorMolecules = cfg.floor;

    const GoalSet goals = drillGoals(cfg);
    MolecularCache cache(p);
    std::vector<std::string> names;
    for (size_t i = 0; i < kMix.size(); ++i) {
        const Asid asid{static_cast<u16>(i)};
        cache.registerApplication(asid, *goals.goal(asid));
        names.push_back(adversaryKindName(kMix[i]));
    }

    auto source = makeAdversarialSource(kMix, cfg.refs, cfg.seed);
    return Simulator::run(*source, cache,
                          RunOptions{}
                              .withGoals(goals)
                              .withLabels(labelMap(names)));
}

std::string
guardianCell(const AppSummary *app)
{
    if (app == nullptr || !app->guardian)
        return "-";
    const GuardianAppTelemetry &g = *app->guardian;
    std::string out = feasibilityVerdictName(g.verdict);
    if (g.shortfall > 0.0)
        out += " (-" + formatDouble(g.shortfall, 3) + ")";
    if (g.stuck)
        out += " STUCK";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("guardian_adversarial",
                  "Adversarial mix, bare Algorithm 1 vs the QoS guardian");
    bench::addCommonOptions(cli, kPaperTraceLength);
    cli.addOption("goal", "0.1", "miss-rate goal for the non-hog apps");
    cli.addOption("hog-goal", "0.02",
                  "hog's goal (unreachable by construction)");
    cli.addOption("floor", "2", "per-region capacity floor, molecules");
    cli.addOption("json", "",
                  "write the guardian-on run's SimResult document here");
    cli.parse(argc, argv);

    DrillConfig cfg;
    cfg.refs = static_cast<u64>(cli.integer("refs"));
    cfg.seed = static_cast<u64>(cli.integer("seed"));
    cfg.goal = cli.real("goal");
    cfg.hogGoal = cli.real("hog-goal");
    cfg.floor = static_cast<u32>(cli.integer("floor"));

    const SimResult off = runDrill(cfg, /*guardianOn=*/false);
    const SimResult on = runDrill(cfg, /*guardianOn=*/true);

    bench::banner("Adversarial mix: miss rate / control-plane telemetry");
    TablePrinter table({"app", "goal", "miss (bare)", "miss (guard)",
                        "verdict", "osc", "flips", "floor hits",
                        "epochs-to-goal"});
    for (size_t i = 0; i < kMix.size(); ++i) {
        const Asid asid{static_cast<u16>(i)};
        const AppSummary *bare = off.qos.find(asid);
        const AppSummary *guarded = on.qos.find(asid);
        const GuardianAppTelemetry *g =
            (guarded != nullptr && guarded->guardian)
                ? &*guarded->guardian
                : nullptr;
        table.row({adversaryKindName(kMix[i]),
                   formatDouble(kMix[i] == AdversaryKind::Hog ? cfg.hogGoal
                                                              : cfg.goal,
                                3),
                   bare != nullptr ? formatDouble(bare->missRate, 4) : "-",
                   guarded != nullptr ? formatDouble(guarded->missRate, 4)
                                      : "-",
                   guardianCell(guarded),
                   g != nullptr ? std::to_string(g->oscillationEvents) : "-",
                   g != nullptr ? std::to_string(g->maxSignFlips) : "-",
                   g != nullptr ? std::to_string(g->floorHits) : "-",
                   g != nullptr ? std::to_string(g->maxEpochsToGoal) : "-"});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    std::printf("bare:    avg deviation %.4f | global miss %.4f\n",
                off.qos.averageDeviation, off.qos.globalMissRate);
    std::printf("guarded: avg deviation %.4f | global miss %.4f | "
                "%llu holds | %llu oscillation events | %llu floor hits | "
                "%u infeasible | %u stuck | pressure %.2f\n",
                on.qos.averageDeviation, on.qos.globalMissRate,
                static_cast<unsigned long long>(on.guardian.holdEpochs),
                static_cast<unsigned long long>(
                    on.guardian.oscillationEvents),
                static_cast<unsigned long long>(on.guardian.floorHits),
                on.guardian.infeasibleRegions, on.guardian.stuckRegions,
                on.guardian.poolPressure);

    const std::string json_out = cli.str("json");
    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out)
            fatal("cannot open '", json_out, "' for writing");
        JsonWriter json(out);
        writeSimResultDocument(json, on);
        out << "\n";
        std::printf("wrote %s\n", json_out.c_str());
    }

    // Self-gating: the hog's goal must surface as infeasible with a
    // shortfall, and the watchdog must leave no region stuck.
    bench::Gate gate;
    gate(on.guardian.infeasibleRegions >= 1,
         "hog goal was not flagged infeasible");
    gate(on.guardian.maxShortfall > 0.0,
         "no shortfall reported for the degraded goal");
    gate(on.guardian.stuckRegions == 0,
         std::to_string(on.guardian.stuckRegions) + " region(s) stuck");
    return gate.verdict("PASS: adversarial drill clean");
}
