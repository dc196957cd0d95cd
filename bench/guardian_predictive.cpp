/**
 * @file
 * Predictive-apportioning drill: the adversarial mix run three times on
 * the same geometry and the same merged reference stream —
 *
 *  - reactive:    guardian on, predictive mode off (the reactive baseline);
 *  - predictive:  predictive mode on with *honest* hints from the two
 *                 phase-structured tenants (phaseflip, bursty); hog and
 *                 steady stay silent (mixed hinted/unhinted population);
 *  - wrong-hints: same, but every hinting tenant lies (inverted sign:
 *                 each promises the phase it is leaving), the
 *                 fault-injection drill for the hint-trust machinery.
 *
 * What the table should show (docs/algorithm1.md, "Predictive mode &
 * hint trust"):
 *  - honest hints cut time-spent-outside-QoS-goal versus reactive
 *    (capacity moves before the shift, not a detect cycle after it);
 *  - with wrong hints, trust collapses and the liar is quarantined back
 *    to reactive control, so time-outside-goal and grant/withdraw churn
 *    stay within a few percent of the reactive baseline (graceful
 *    degradation, not amplification);
 *  - the unhinted tenants are unaffected either way.
 *
 * --json writes a schema-versioned document bundling all three runs'
 * SimResults plus a precomputed comparison block.  The drill gates the
 * same comparison itself: it prints a FAIL: line and exits non-zero
 * when the liar escapes quarantine, a contract is violated, honest
 * hints lose to reactive, or wrong hints exceed 1.1x reactive on time
 * outside goal or churn.
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

constexpr size_t kPhaseFlipSlot = 0;

enum class DrillMode { Reactive, Predictive, WrongHints };

const char *
drillModeName(DrillMode mode)
{
    switch (mode) {
      case DrillMode::Reactive:
        return "reactive";
      case DrillMode::Predictive:
        return "predictive";
      case DrillMode::WrongHints:
        return "wrong_hints";
    }
    return "unknown";
}

struct DrillConfig
{
    u64 refs = 0;
    u64 seed = 1;
    double goal = 0.10;
    double hogGoal = 0.02;
    u32 floor = 2;
    u64 lead = 12'000;
};

struct DrillOutcome
{
    SimResult sim;
    /** Grant + withdraw molecule churn over the whole run. */
    u64 churn = 0;
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

/** One hint policy per tenant: phase-structured tenants announce their
 * boundaries, hog/steady stay silent, and WrongHints inverts every
 * hinting tenant's sign (whole-population adversarial failure — the
 * churn bound below is against the entire cache, so partial honesty
 * would hide an amplifying liar behind a well-behaved neighbour). */
std::vector<HintPolicy>
drillHints(const DrillConfig &cfg, DrillMode mode)
{
    std::vector<HintPolicy> hints(kMix.size());
    if (mode == DrillMode::Reactive)
        return hints;
    for (size_t i = 0; i < kMix.size(); ++i) {
        if (kMix[i] != AdversaryKind::PhaseFlip &&
            kMix[i] != AdversaryKind::Bursty)
            continue;
        hints[i].enabled = true;
        hints[i].leadAccesses = cfg.lead;
        hints[i].confidence = 0.9;
        hints[i].invertPhase = mode == DrillMode::WrongHints;
    }
    return hints;
}

DrillOutcome
runDrill(const DrillConfig &cfg, DrillMode mode)
{
    MolecularCacheParams p;
    // The 2 MiB default cluster the adversary footprints are tuned
    // against, per-app adaptive periods, guardian always on — the modes
    // differ only in predictive enablement and hint honesty, so every
    // delta below is attributable to the hint path.
    p.resizeScheme = ResizeScheme::PerAppAdaptive;
    p.seed = cfg.seed;
    p.guardian.enabled = true;
    p.guardian.floorMolecules = cfg.floor;
    p.guardian.predictive = mode != DrillMode::Reactive;

    const GoalSet goals = drillGoals(cfg);
    MolecularCache cache(p);
    std::vector<std::string> names;
    for (size_t i = 0; i < kMix.size(); ++i) {
        const Asid asid{static_cast<u16>(i)};
        cache.registerApplication(asid, *goals.goal(asid));
        names.push_back(adversaryKindName(kMix[i]));
    }

    auto source = makeAdversarialSource(kMix, drillHints(cfg, mode),
                                        cfg.refs, cfg.seed);
    DrillOutcome out;
    out.sim = Simulator::run(*source, cache,
                             RunOptions{}
                                 .withGoals(goals)
                                 .withLabels(labelMap(names)));
    out.churn = cache.resizer().granted() + cache.resizer().withdrawn();
    return out;
}

const GuardianAppTelemetry *
telemetryOf(const SimResult &r, size_t slot)
{
    const AppSummary *app = r.qos.find(Asid{static_cast<u16>(slot)});
    if (app == nullptr || !app->guardian)
        return nullptr;
    return &*app->guardian;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("guardian_predictive",
                  "Reactive vs predictive vs predictive-with-wrong-hints");
    bench::addCommonOptions(cli, kPaperTraceLength);
    cli.addOption("goal", "0.1", "miss-rate goal for the non-hog apps");
    cli.addOption("hog-goal", "0.02",
                  "hog's goal (unreachable by construction)");
    cli.addOption("floor", "2", "per-region capacity floor, molecules");
    cli.addOption("lead", "12000",
                  "hint lead, references ahead of the phase boundary");
    cli.addOption("json", "",
                  "write the three-run comparison document here");
    cli.parse(argc, argv);

    DrillConfig cfg;
    cfg.refs = static_cast<u64>(cli.integer("refs"));
    cfg.seed = static_cast<u64>(cli.integer("seed"));
    cfg.goal = cli.real("goal");
    cfg.hogGoal = cli.real("hog-goal");
    cfg.floor = static_cast<u32>(cli.integer("floor"));
    cfg.lead = static_cast<u64>(cli.integer("lead"));

    const DrillMode modes[] = {DrillMode::Reactive, DrillMode::Predictive,
                               DrillMode::WrongHints};
    DrillOutcome runs[3];
    for (size_t m = 0; m < 3; ++m)
        runs[m] = runDrill(cfg, modes[m]);

    bench::banner(
        "Predictive apportioning: time outside goal / churn / trust");
    TablePrinter table({"mode", "global miss", "refs outside goal",
                        "epochs outside", "churn", "hints seen",
                        "honored", "rejected", "quarantined",
                        "min trust"});
    for (size_t m = 0; m < 3; ++m) {
        const GuardianSummary &g = runs[m].sim.guardian;
        table.row({drillModeName(modes[m]),
                   formatDouble(runs[m].sim.qos.globalMissRate, 4),
                   std::to_string(g.accessesOutsideGoal),
                   std::to_string(g.epochsOutsideGoal),
                   std::to_string(runs[m].churn),
                   std::to_string(g.hintsSeen),
                   std::to_string(g.hintsHonored),
                   std::to_string(g.hintsRejected),
                   std::to_string(g.quarantinedRegions),
                   g.predictiveEnabled ? formatDouble(g.minTrust, 3)
                                       : "-"});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    // Per-tenant trust in the wrong-hint drill: the liar must end
    // quarantined, the honest and silent tenants must not.
    TablePrinter trust({"app", "hints", "honored", "rejected", "trust",
                        "quarantined", "refs outside goal"});
    for (size_t i = 0; i < kMix.size(); ++i) {
        const GuardianAppTelemetry *g = telemetryOf(runs[2].sim, i);
        trust.row({adversaryKindName(kMix[i]),
                   g != nullptr ? std::to_string(g->hintsSeen) : "-",
                   g != nullptr ? std::to_string(g->hintsHonored) : "-",
                   g != nullptr ? std::to_string(g->hintsRejected) : "-",
                   g != nullptr ? formatDouble(g->trust, 3) : "-",
                   g != nullptr ? (g->quarantined ? "yes" : "no") : "-",
                   g != nullptr ? std::to_string(g->accessesOutsideGoal)
                                : "-"});
    }
    std::printf("wrong-hint drill, per tenant:\n");
    if (cli.flag("csv"))
        trust.printCsv(std::cout);
    else
        trust.print(std::cout);

    const u64 reactive_out = runs[0].sim.guardian.accessesOutsideGoal;
    const u64 honest_out = runs[1].sim.guardian.accessesOutsideGoal;
    const u64 wrong_out = runs[2].sim.guardian.accessesOutsideGoal;
    const GuardianAppTelemetry *liar =
        telemetryOf(runs[2].sim, kPhaseFlipSlot);
    const u64 violations = runs[0].sim.contractViolations +
                           runs[1].sim.contractViolations +
                           runs[2].sim.contractViolations;
    std::printf("time outside goal: reactive %llu | honest %llu | "
                "wrong %llu refs\n",
                static_cast<unsigned long long>(reactive_out),
                static_cast<unsigned long long>(honest_out),
                static_cast<unsigned long long>(wrong_out));
    std::printf("churn: reactive %llu | honest %llu | wrong %llu "
                "molecules\n",
                static_cast<unsigned long long>(runs[0].churn),
                static_cast<unsigned long long>(runs[1].churn),
                static_cast<unsigned long long>(runs[2].churn));
    std::printf("liar (%s): trust %.3f, quarantined=%s\n",
                adversaryKindName(kMix[kPhaseFlipSlot]).c_str(),
                liar != nullptr ? liar->trust : 0.0,
                liar != nullptr && liar->quarantined ? "yes" : "no");

    const std::string json_out = cli.str("json");
    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out)
            fatal("cannot open '", json_out, "' for writing");
        JsonWriter json(out);
        json.beginObject();
        writeSchemaVersion(json);
        json.key("kind");
        json.value("guardian_predictive");
        json.key("drills");
        json.beginObject();
        for (size_t m = 0; m < 3; ++m) {
            json.key(drillModeName(modes[m]));
            json.beginObject();
            json.key("churn_molecules");
            json.value(runs[m].churn);
            json.key("result");
            writeSimResultJson(json, runs[m].sim);
            json.endObject();
        }
        json.endObject();
        json.key("comparison");
        json.beginObject();
        json.key("outside_goal_reactive");
        json.value(reactive_out);
        json.key("outside_goal_predictive");
        json.value(honest_out);
        json.key("outside_goal_wrong_hints");
        json.value(wrong_out);
        json.key("churn_reactive");
        json.value(runs[0].churn);
        json.key("churn_predictive");
        json.value(runs[1].churn);
        json.key("churn_wrong_hints");
        json.value(runs[2].churn);
        json.key("liar_quarantined");
        json.value(liar != nullptr && liar->quarantined);
        json.key("liar_trust");
        json.value(liar != nullptr ? liar->trust : 0.0);
        json.key("contract_violations");
        json.value(violations);
        json.endObject();
        json.endObject();
        out << "\n";
        std::printf("wrote %s\n", json_out.c_str());
    }

    // Self-gating: the liar ends quarantined, honest hints do not lose
    // to reactive, and wrong hints degrade gracefully instead of
    // amplifying time outside goal or capacity churn.
    bench::Gate gate;
    gate(liar != nullptr && liar->quarantined,
         "the lying tenant was not quarantined (trust " +
             formatDouble(liar != nullptr ? liar->trust : 0.0, 3) + ")");
    gate(violations == 0, std::to_string(violations) +
                              " contract violations");
    gate(honest_out <= reactive_out,
         "honest hints did not beat reactive on time outside goal");
    gate(static_cast<double>(wrong_out) <=
             1.1 * static_cast<double>(reactive_out),
         "wrong hints amplified time outside goal past 1.1x reactive");
    gate(static_cast<double>(runs[2].churn) <=
             1.1 * static_cast<double>(runs[0].churn),
         "wrong hints amplified capacity churn past 1.1x reactive");
    return gate.verdict("PASS: predictive drill clean");
}
