/**
 * @file
 * molcached chaos drill — the acceptance harness for the resilience
 * plane (docs/fault_model.md, "Service-level faults & the degradation
 * ladder").
 *
 * Where service_churn proves the service correct under tenant churn,
 * this drill proves it DEGRADES GRACEFULLY: worker threads hammer a
 * live service through accessChecked() (with bounded retry/backoff on
 * Overloaded) while the control plane fires a seeded chaos storm —
 * transient flips, hard-fault decommissions, at least one whole-shard
 * outage, and shard stalls — and then climbs the degradation ladder:
 * quarantine, tenant remap, proportional goal degradation.  The driver
 * keeps traffic flowing until the resilience plane reports quiet
 * (chaos schedule drained, no remaps pending, every remapped tenant
 * re-converged) or a hard epoch bound trips.
 *
 * Exit status is the drill's gate (CI runs `chaos_drill --smoke` under
 * TSan and a full storm in the adversarial job): it fails on any
 * invariant violation, any contract violation, an unquiet resilience
 * plane at the bound, an undrained quarantine, or any departed tenant
 * left undrained.  --json writes the schema-versioned service_summary
 * document with the resilience block — the artifact the adversarial
 * job's sanity gate parses.
 */

#include <array>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/seed_stream.hpp"
#include "exec/thread_pool.hpp"
#include "service/service.hpp"
#include "service/service_json.hpp"
#include "stats/table.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"
#include "workload/churn.hpp"

using namespace molcache;

namespace {

struct StormConfig
{
    u32 workers = 8;
    u64 totalRefs = 1'500'000;
    u64 seed = 1;
    u32 shards = 3;
    u64 epochMillis = 5;
    u32 initialTenants = 12;
    /** Hard bound on control-plane epochs before the drill declares the
     * resilience plane stuck (the "bounded re-convergence" gate). */
    u64 maxEpochs = 500;
    ChurnParams churn;
};

struct LiveTenant
{
    mc::TenantHandle handle;
    ChurnTenantProfile profile;
    u64 deathAt = 0;
};

/** Shared tenant board; same discipline as service_churn (driver is the
 * only writer, workers copy handles out under the lock). */
struct Board
{
    mc::Mutex mutex;
    std::vector<LiveTenant> live MOLCACHE_GUARDED_BY(mutex);
    std::atomic<bool> stop{false};
    std::atomic<u64> accesses{0};
    std::atomic<u64> shedBursts{0};
    std::atomic<u64> contractViolations{0};
};

/** One reference through accessChecked() with bounded retry/backoff:
 * an Overloaded verdict backs off (scaled by the suggested retry-after,
 * capped) and retries at most three times before dropping the ref. */
bool
accessWithBackoff(mc::Service &service, const mc::TenantHandle &handle,
                  Addr addr, bool isWrite, u64 epochMillis)
{
    for (u32 attempt = 0;; ++attempt) {
        const mc::AccessOutcome outcome =
            service.accessChecked(handle, addr, isWrite);
        if (outcome.status == mc::AccessStatus::Ok)
            return true;
        if (attempt >= 3)
            return false; // shed for good; the caller drops the burst
        const u64 micros =
            std::min<u64>(outcome.retryAfterEpochs * epochMillis * 1000u,
                          2000u << attempt);
        std::this_thread::sleep_for(
            std::chrono::microseconds(micros != 0 ? micros : 100u));
    }
}

void
runWorker(mc::Service &service, Board &board, u64 seed, u64 epochMillis)
{
    const auto rng = makeRandomSource(RngKind::Pcg32, seed);
    const u64 before = contract::counters().total();
    mc::TenantHandle handle;
    ChurnTenantProfile profile;
    u64 sinceRefresh = ~u64{0}; // force an initial pick
    while (!board.stop.load(std::memory_order_acquire)) {
        if (sinceRefresh > 8) {
            sinceRefresh = 0;
            mc::MutexLock lock(board.mutex);
            if (board.live.empty()) {
                handle.reset();
            } else {
                const LiveTenant &pick =
                    board.live[rng->next64() % board.live.size()];
                handle = pick.handle;
                profile = pick.profile;
            }
        }
        ++sinceRefresh;
        if (!handle) {
            std::this_thread::yield();
            continue;
        }
        u64 served = 0;
        for (u64 burst = 0; burst < 64; ++burst) {
            if (!accessWithBackoff(service, handle,
                                   churnAddress(profile, *rng),
                                   churnIsWrite(profile, *rng),
                                   epochMillis)) {
                // The shard is stalled and stayed stalled through the
                // backoff budget: drop the rest of the burst and
                // re-pick (the tenant may be remapped next epoch).
                board.shedBursts.fetch_add(1, std::memory_order_relaxed);
                sinceRefresh = ~u64{0};
                break;
            }
            ++served;
        }
        board.accesses.fetch_add(served, std::memory_order_relaxed);
    }
    board.contractViolations.fetch_add(contract::counters().total() - before,
                                       std::memory_order_relaxed);
}

void
attachOne(mc::Service &service, Board &board, ChurnProcess &churn,
          u64 ordinal, u64 now)
{
    LiveTenant tenant;
    tenant.profile =
        churn.makeProfile(ordinal, service.options().cache.lineSize);
    mc::TenantSpec spec;
    // Appended, not `"t" + std::to_string(...)`: GCC 12 at -O3 reports
    // a false -Wrestrict on that operator+ overload.
    spec.name = "t";
    spec.name += std::to_string(ordinal);
    spec.missRateGoal = tenant.profile.missRateGoal;
    mc::AttachError error = mc::AttachError::None;
    tenant.handle = service.attach(spec, &error);
    if (!tenant.handle)
        // Turned away (admission cap, overload protection, or a
        // quarantined target) — valid behaviour under a storm; the
        // rejection is counted per reason in the telemetry.
        return;
    tenant.deathAt = now + churn.nextLifetime();
    mc::MutexLock lock(board.mutex);
    board.live.push_back(std::move(tenant));
}

/** The storm's quiet criterion: schedule drained, nobody waiting for a
 * healthy destination, every remapped tenant re-converged. */
bool
resilienceQuiet(const mc::ServiceResilienceSummary &res)
{
    return res.chaosPending == 0 && res.remapsPending == 0 &&
           res.tenantsRecovering == 0;
}

void
runDriver(mc::Service &service, Board &board, const StormConfig &cfg,
          bool *quiet)
{
    const u64 before = contract::counters().total();
    ChurnProcess churn(cfg.churn, deriveJobSeed(cfg.seed, 0));
    u64 ordinal = 0;
    for (; ordinal < cfg.initialTenants; ++ordinal)
        attachOne(service, board, churn, ordinal, 0);
    u64 nextArrival = churn.nextArrivalGap();

    // Keep churning until the access target is met AND the resilience
    // plane is quiet — re-convergence needs live traffic, so the
    // workers must still be running while we wait for it.
    u64 now = 0;
    for (;;) {
        now = board.accesses.load(std::memory_order_relaxed);
        const bool done = now >= cfg.totalRefs &&
                          resilienceQuiet(service.summary().resilience);
        if (done) {
            *quiet = true;
            break;
        }
        if (service.epochsCompleted() > cfg.maxEpochs) {
            *quiet = resilienceQuiet(service.summary().resilience);
            break; // bound tripped; the gate below decides pass/fail
        }
        if (now >= nextArrival) {
            attachOne(service, board, churn, ordinal++, now);
            nextArrival = now + churn.nextArrivalGap();
        }
        std::vector<mc::TenantHandle> dying;
        {
            mc::MutexLock lock(board.mutex);
            for (auto it = board.live.begin(); it != board.live.end();) {
                if (it->deathAt <= now) {
                    dying.push_back(std::move(it->handle));
                    it = board.live.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (const mc::TenantHandle &handle : dying)
            service.detach(handle);
        dying.clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::vector<mc::TenantHandle> rest;
    {
        mc::MutexLock lock(board.mutex);
        for (LiveTenant &tenant : board.live)
            rest.push_back(std::move(tenant.handle));
        board.live.clear();
    }
    for (const mc::TenantHandle &handle : rest)
        service.detach(handle);
    rest.clear();
    board.stop.store(true, std::memory_order_release);
    board.contractViolations.fetch_add(contract::counters().total() - before,
                                       std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("chaos_drill",
                  "molcached chaos storm + degradation-ladder drill");
    cli.addOption("workers", "8", "access worker threads");
    cli.addOption("refs", "1500000", "accesses to serve before quiescing");
    cli.addOption("seed", "1", "base RNG seed (storm and workload)");
    cli.addOption("shards", "3", "cache shards (>= 2 so remap has a "
                                 "destination)");
    cli.addOption("epoch-ms", "5", "control-plane epoch period");
    cli.addOption("max-epochs", "500",
                  "epoch bound for the re-convergence gate");
    cli.addOption("json", "",
                  "write the service_summary telemetry document here");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
    cli.addFlag("smoke", "CI-sized run: same storm, shorter traffic");
    cli.parse(argc, argv);

    StormConfig cfg;
    cfg.workers = static_cast<u32>(cli.integer("workers"));
    cfg.totalRefs = static_cast<u64>(cli.integer("refs"));
    cfg.seed = static_cast<u64>(cli.integer("seed"));
    cfg.shards = static_cast<u32>(cli.integer("shards"));
    cfg.epochMillis = static_cast<u64>(cli.integer("epoch-ms"));
    cfg.maxEpochs = static_cast<u64>(cli.integer("max-epochs"));
    cfg.churn.meanInterarrival = 30'000;
    cfg.churn.meanLifetime = 400'000;
    if (cli.flag("smoke"))
        cfg.totalRefs = std::min<u64>(cfg.totalRefs, 250'000);
    if (cfg.workers == 0)
        fatal("--workers must be >= 1");
    if (cfg.shards < 2)
        fatal("--shards must be >= 2 (a remap needs a healthy "
              "destination)");

    // The storm: every chaos kind, with at least one whole-shard
    // outage so the quarantine -> remap -> degrade ladder must climb.
    mc::ChaosSpec chaos;
    chaos.seed = cfg.seed;
    chaos.windowStart = 4;
    chaos.windowEnd = 48;
    chaos.transientFlips = 8;
    chaos.hardFaults = 10;
    chaos.shardOutages = 1;
    chaos.shardStalls = 2;
    chaos.stallEpochs = 3;

    mc::ServiceOptions options;
    options.withShards(cfg.shards)
        .withEpochMillis(cfg.epochMillis)
        .withGuardian(true)
        .withChaos(chaos)
        .withAdmitWatermarks(0.95, 0.85)
        // Generous slack: the drill gates on BOUNDED re-convergence
        // under a storm, not on QoS precision (the tests pin the exact
        // criterion deterministically).
        .withRecoverySlack(0.25);
    options.cache.seed = cfg.seed;
    mc::Service service(options);

    bench::banner("molcached chaos storm drill");
    std::printf("workers %u, shards %u, target %llu accesses, epoch %llu "
                "ms, storm: %u flips + %u hard faults + %u outage(s) + %u "
                "stall(s), epoch bound %llu\n",
                cfg.workers, cfg.shards,
                static_cast<unsigned long long>(cfg.totalRefs),
                static_cast<unsigned long long>(cfg.epochMillis),
                chaos.transientFlips, chaos.hardFaults, chaos.shardOutages,
                chaos.shardStalls,
                static_cast<unsigned long long>(cfg.maxEpochs));

    Board board;
    bool quiet = false;
    {
        // Job 0 is the storm driver, jobs 1..N the access workers;
        // one thread per job gives each long-running job its own.
        parallelFor(cfg.workers + 1, cfg.workers + 1, [&](u64 job) {
            if (job == 0)
                runDriver(service, board, cfg, &quiet);
            else
                runWorker(service, board,
                          deriveJobSeed(cfg.seed, 1000 + job),
                          cfg.epochMillis);
        });
    }

    // Run epochs until every departed tenant has drained (and the
    // quarantined shard's drain is observed).
    mc::ServiceSummary summary = service.summary();
    for (u32 i = 0; i < 8; ++i) {
        service.runEpochNow();
        summary = service.summary();
        if (summary.tenantsDrained == summary.tenantsDetached)
            break;
    }
    summary.contractViolations +=
        board.contractViolations.load(std::memory_order_acquire) +
        contract::counters().total();
    const mc::ServiceResilienceSummary &res = summary.resilience;

    TablePrinter table({"metric", "value"});
    table.row({"accesses", std::to_string(summary.accesses)});
    table.row({"miss rate", std::to_string(summary.missRate())});
    table.row({"epochs", std::to_string(summary.epoch)});
    table.row({"tenants attached", std::to_string(summary.tenantsAttached)});
    table.row({"tenants detached", std::to_string(summary.tenantsDetached)});
    table.row({"tenants drained", std::to_string(summary.tenantsDrained)});
    table.row({"chaos flips", std::to_string(res.chaosTransientFlips)});
    table.row({"chaos hard faults", std::to_string(res.chaosHardFaults)});
    table.row({"chaos outages", std::to_string(res.chaosShardOutages)});
    table.row({"chaos stalls", std::to_string(res.chaosShardStalls)});
    table.row({"shards quarantined", std::to_string(res.shardsQuarantined)});
    table.row({"shards drained", std::to_string(res.shardsDrained)});
    table.row({"tenants remapped", std::to_string(res.tenantsRemapped)});
    table.row({"remap invalidations",
               std::to_string(res.remapInvalidations)});
    table.row({"remap forced misses",
               std::to_string(res.remapForcedMisses)});
    table.row({"accesses shed", std::to_string(res.accessesShed)});
    table.row({"shed bursts",
               std::to_string(board.shedBursts.load(
                   std::memory_order_acquire))});
    table.row({"max epochs to drain", std::to_string(res.maxEpochsToDrain)});
    table.row({"max epochs to remap", std::to_string(res.maxEpochsToRemap)});
    table.row({"max epochs back to goal",
               std::to_string(res.maxEpochsBackToGoal)});
    table.row({"invariant violations",
               std::to_string(summary.invariantViolations)});
    table.row({"contract violations",
               std::to_string(summary.contractViolations)});
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    const std::string json_out = cli.str("json");
    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out)
            fatal("cannot open '", json_out, "' for writing");
        JsonWriter json(out);
        mc::writeServiceSummaryDocument(json, summary);
        out << "\n";
        std::printf("wrote %s\n", json_out.c_str());
    }

    bench::Gate gate;
    gate(quiet, "resilience plane not quiet within the epoch bound");
    gate(summary.invariantViolations == 0, "invariant violations");
    gate(summary.contractViolations == 0, "contract violations");
    gate(summary.tenantsDrained == summary.tenantsDetached,
         "departed tenants left undrained");
    gate(res.chaosPending == 0, "chaos events left unfired");
    gate(res.chaosShardOutages >= 1, "the storm fired no shard outage");
    gate(res.shardsQuarantined >= 1, "the outage quarantined no shard");
    gate(res.shardsDrained == res.shardsQuarantined,
         "a quarantined shard never drained");
    gate(res.remapsPending == 0, "tenants still waiting for a remap");
    gate(summary.tenantsLive == 0, "tenants left live after shutdown");
    gate(res.tenantsRecovering == 0,
         "tenant(s) never re-converged on their goal");
    // 0 is legal for the SLOs: the ladder often completes within the
    // epoch that quarantined the shard, and a remapped tenant may depart
    // before it converges.  They must just stay bounded by the run.
    gate(res.maxEpochsToRemap <= summary.epoch,
         "epochs-to-remap SLO unbounded");
    gate(res.maxEpochsToDrain <= summary.epoch,
         "epochs-to-drain SLO unbounded");
    gate(res.maxEpochsBackToGoal <= summary.epoch,
         "back-to-goal SLO unbounded");
    return gate.verdict("PASS: chaos drill clean");
}
