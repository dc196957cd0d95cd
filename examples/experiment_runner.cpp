/**
 * @file
 * Config-driven experiment runner: describe a cache, a workload mix and
 * per-application goals in a key=value file (or as CLI key=value
 * overrides), run, and get a table plus optional JSON.
 *
 * Example configuration:
 *
 *     # experiment.cfg
 *     model          = molecular        # molecular | setassoc | waypart
 *     size           = 2M
 *     placement      = randy
 *     tiles          = 4
 *     clusters       = 1
 *     refs           = 2000000
 *     profiles       = ammp,parser,gcc,twolf
 *     goal           = 0.1
 *     goal.0         = 0.05             # per-ASID override
 *     seed           = 1
 *
 * Fault-injection drills (molecular model only; docs/fault_model.md):
 *
 *     fault.hard_fraction   = 0.1       # decommission 10% of molecules
 *     fault.transient_flips = 200       # seeded bit flips
 *     fault.seed            = 7
 *     hard_fault_threshold  = 1
 *     audit                 = 50000     # invariant audit every N accesses
 *
 * Run with:
 *
 *     experiment_runner experiment.cfg [extra=overrides ...] [--json out]
 *
 * Unknown keys are warn()ed so typos surface instead of silently
 * defaulting.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "cache/set_assoc.hpp"
#include "cache/way_partitioned.hpp"
#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "fault/fault_injector.hpp"
#include "fault/invariant_checker.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "util/config.hpp"
#include "util/config_keys.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "util/units.hpp"
#include "workload/adversarial.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

GoalSet
goalsFrom(const Config &cfg, size_t apps)
{
    GoalSet goals;
    const double common = cfg.getDouble("goal", 0.1);
    for (size_t i = 0; i < apps; ++i) {
        goals.set(Asid{static_cast<u16>(i)},
                  cfg.getDouble("goal." + std::to_string(i), common));
    }
    return goals;
}

std::unique_ptr<CacheModel>
buildModel(const Config &cfg, const GoalSet &goals, size_t apps, u64 refs)
{
    const std::string model = cfg.getString("model", "molecular");
    const Bytes size = cfg.getSize("size", 2_MiB);
    const u64 seed = static_cast<u64>(cfg.getInt("seed", 1));

    if (model == "setassoc") {
        SetAssocParams p;
        p.sizeBytes = size;
        p.associativity = static_cast<u32>(cfg.getInt("assoc", 8));
        return std::make_unique<SetAssocCache>(p);
    }
    if (model == "waypart") {
        WayPartitionedParams p;
        p.sizeBytes = size;
        p.associativity = static_cast<u32>(cfg.getInt("assoc", 8));
        auto cache = std::make_unique<WayPartitionedCache>(p);
        for (size_t i = 0; i < apps; ++i)
            cache->registerApplication(Asid{static_cast<u16>(i)},
                                       *goals.goal(Asid{static_cast<u16>(i)}));
        return cache;
    }
    if (model == "molecular") {
        MolecularCacheParams p;
        p.moleculeSize = cfg.getSize("molecule", 8_KiB);
        p.tilesPerCluster = static_cast<u32>(cfg.getInt("tiles", 4));
        p.clusters = static_cast<u32>(cfg.getInt("clusters", 1));
        const Bytes tile_bytes =
            size / (static_cast<u64>(p.tilesPerCluster) * p.clusters);
        if (tile_bytes == Bytes{0} || tile_bytes % p.moleculeSize != Bytes{0})
            fatal("size does not divide into tiles of whole molecules");
        p.moleculesPerTile =
            static_cast<u32>(tile_bytes / p.moleculeSize);
        p.placement =
            parsePlacementPolicy(cfg.getString("placement", "randy"));
        p.resizeScheme =
            parseResizeScheme(cfg.getString("resize", "global"));
        p.seed = seed;
        p.hardFaultThreshold =
            static_cast<u32>(cfg.getInt("hard_fault_threshold", 1));
        p.guardian.enabled = cfg.getBool("guardian.enabled", false);
        p.guardian.floorMolecules = static_cast<u32>(cfg.getInt(
            "guardian.floor", p.guardian.floorMolecules));
        p.guardian.predictive =
            cfg.getBool("guardian.predictive.enabled", p.guardian.predictive);
        auto cache = std::make_unique<MolecularCache>(p);
        for (size_t i = 0; i < apps; ++i)
            cache->registerApplication(Asid{static_cast<u16>(i)},
                                       *goals.goal(Asid{static_cast<u16>(i)}));
        if (p.guardian.enabled) {
            for (size_t i = 0; i < apps; ++i) {
                const std::string key =
                    "guardian.floor." + std::to_string(i);
                const i64 floor =
                    cfg.getInt(key, p.guardian.floorMolecules);
                cache->setRegionFloor(
                    Asid{static_cast<u16>(i)}, static_cast<u32>(floor));
            }
        }
        if (hasFaultKeys(cfg)) {
            // Default fault window: the middle half of the run, so the
            // cache warms before faults land and has time to recover.
            const FaultScheduleSpec spec =
                faultSpecFromConfig(cfg, refs / 4, refs / 4 * 3 + 1);
            SimAccess{*cache}.setFaultInjector(FaultInjector::fromSpec(
                spec, p.totalMolecules(), p.moleculesPerTile,
                p.linesPerMolecule()));
        }
        if (const u64 audit = static_cast<u64>(cfg.getInt("audit", 0)))
            InvariantChecker::attach(*cache, audit);
        return cache;
    }
    fatal("unknown model '", model,
          "' (expected molecular|setassoc|waypart)");
}

void
writeJson(const std::string &path, const SimResult &result)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    // The canonical schema-versioned document (sim/result_json.hpp), so
    // this tool emits byte-identical results to the sweep engine.
    JsonWriter json(out);
    writeSimResultDocument(json, result);
    out << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Hand-rolled argument handling: positional config file, key=value
    // overrides, optional --json FILE.
    Config cfg;
    std::string json_out;
    std::vector<std::string> overrides;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc)
                fatal("--json needs a file");
            json_out = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: experiment_runner [config.cfg] "
                        "[key=value ...] [--json out.json]\n");
            return 0;
        } else if (arg.find('=') != std::string::npos) {
            overrides.push_back(arg);
        } else {
            cfg.merge(Config::fromFile(arg));
        }
    }
    cfg.merge(Config::fromTokens(overrides));

    const auto profiles = split(
        cfg.getString("profiles", "ammp,parser,gcc,twolf"), ',');
    // A profile list naming only adversary kinds switches the runner to
    // the adversarial generators (src/workload/adversarial.hpp), which
    // unlocks the `workload.hint.*` phase-hint knobs; mixing the two
    // families in one list is rejected below via hasProfile.
    const bool adversarial =
        !profiles.empty() &&
        std::all_of(profiles.begin(), profiles.end(), isAdversaryKind);
    if (!adversarial)
        for (const auto &name : profiles)
            if (!hasProfile(name))
                fatal("unknown profile '", name, "'");

    cfg.warnUnknownKeys(knownConfigKeyNames());

    const GoalSet goals = goalsFrom(cfg, profiles.size());
    const u64 refs =
        static_cast<u64>(cfg.getInt("refs", 2'000'000));
    auto model = buildModel(cfg, goals, profiles.size(), refs);
    const u64 seed = static_cast<u64>(cfg.getInt("seed", 1));

    SimResult result;
    if (adversarial) {
        std::vector<AdversaryKind> kinds;
        for (const auto &name : profiles)
            kinds.push_back(parseAdversaryKind(name));
        const std::vector<HintPolicy> hints(kinds.size(),
                                            hintPolicyFromConfig(cfg));
        auto source = makeAdversarialSource(kinds, hints, refs, seed);
        result = Simulator::run(*source, *model,
                                RunOptions{}
                                    .withGoals(goals)
                                    .withLabels(labelMap(profiles)));
    } else {
        result = runWorkload(profiles, *model,
                             RunOptions{}
                                 .withGoals(goals)
                                 .withReferences(refs)
                                 .withSeed(seed));
    }

    std::printf("%s | %llu refs\n", result.cacheName.c_str(),
                static_cast<unsigned long long>(result.accesses));
    TablePrinter table(
        {"app", "miss rate", "goal", "deviation", "AMAT (cyc)"});
    for (const AppSummary &app : result.qos.apps) {
        table.row({app.label, formatDouble(app.missRate, 4),
                   app.goal ? formatDouble(*app.goal, 2) : "-",
                   app.deviation ? formatDouble(*app.deviation, 4) : "-",
                   formatDouble(app.amat, 1)});
    }
    table.print(std::cout);
    std::printf("average deviation %.4f | global miss rate %.4f | "
                "energy %.3f mJ\n",
                result.qos.averageDeviation, result.qos.globalMissRate,
                result.totalEnergyNj * 1e-6);
    if (result.faultEventsApplied > 0) {
        std::printf("faults: %llu events | %llu molecules decommissioned | "
                    "%llu flips detected | %llu dirty lines lost | "
                    "%llu recovery grants | reconvergence <= %u epochs%s\n",
                    static_cast<unsigned long long>(result.faultEventsApplied),
                    static_cast<unsigned long long>(
                        result.moleculesDecommissioned),
                    static_cast<unsigned long long>(
                        result.transientFlipsDetected),
                    static_cast<unsigned long long>(result.dirtyLinesLost),
                    static_cast<unsigned long long>(result.recoveryGrants),
                    result.maxReconvergenceEpochs,
                    result.regionsStillRecovering
                        ? " (some regions still recovering)"
                        : "");
    }
    if (result.guardian.enabled) {
        std::printf("guardian: %llu holds | %llu oscillation events | "
                    "%llu floor hits | %llu floor restores | "
                    "%u infeasible | %u stuck | pressure %.2f\n",
                    static_cast<unsigned long long>(
                        result.guardian.holdEpochs),
                    static_cast<unsigned long long>(
                        result.guardian.oscillationEvents),
                    static_cast<unsigned long long>(
                        result.guardian.floorHits),
                    static_cast<unsigned long long>(
                        result.guardian.floorRestoreGrants),
                    result.guardian.infeasibleRegions,
                    result.guardian.stuckRegions,
                    result.guardian.poolPressure);
        for (const AppSummary &app : result.qos.apps) {
            if (!app.guardian)
                continue;
            const GuardianAppTelemetry &g = *app.guardian;
            if (g.verdict == FeasibilityVerdict::Infeasible)
                std::printf("  %s: goal infeasible, degraded by %.4f\n",
                            app.label.c_str(), g.shortfall);
            if (g.stuck)
                std::printf("  %s: stuck above goal past the watchdog "
                            "budget\n",
                            app.label.c_str());
        }
    }

    if (!json_out.empty()) {
        writeJson(json_out, result);
        std::printf("wrote %s\n", json_out.c_str());
    }
    return 0;
}
