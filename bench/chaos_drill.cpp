/**
 * @file
 * molcached chaos drill — the acceptance harness for the resilience
 * plane (docs/fault_model.md, "Service-level faults & the degradation
 * ladder").
 *
 * Where service_churn proves the service correct under tenant churn,
 * this drill proves it DEGRADES GRACEFULLY: worker threads hammer a
 * live service through accessChecked() while the epochs fire a seeded
 * chaos storm — transient flips, hard-fault decommissions, at least
 * one whole-shard outage, and shard stalls — and then climb the
 * degradation ladder: quarantine, tenant remap, proportional goal
 * degradation.  An Overloaded verdict drops the rest of the burst, and
 * the worker leaves that tenant alone for the suggested retry-after,
 * counted in epochs.  The shared driver (bench/churn_drill.hpp) keeps
 * traffic flowing past the reference target until the resilience plane
 * reports quiet (chaos schedule drained, no remaps pending, every
 * remapped tenant re-converged) or its settle bound trips.
 *
 * Exit status is the drill's gate (CI runs `chaos_drill --smoke` under
 * TSan and a full storm in the adversarial job): it fails on any
 * invariant violation, any contract violation, an unquiet resilience
 * plane at the bound, an undrained quarantine, or any departed tenant
 * left undrained.  With one worker the stdout is a function of the
 * seed (a ctest pins its digest).  --json writes the schema-versioned
 * service_summary document with the resilience block — the artifact
 * the adversarial job's sanity gate parses.
 */

#include "churn_drill.hpp"

using namespace molcache;

namespace {

/** The storm's quiet criterion: schedule drained, nobody waiting for a
 * healthy destination, every remapped tenant re-converged. */
bool
resilienceQuiet(const mc::ServiceResilienceSummary &res)
{
    return res.chaosPending == 0 && res.remapsPending == 0 &&
           res.tenantsRecovering == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("chaos_drill",
                  "molcached chaos storm + degradation-ladder drill");
    bench::addDrillOptions(cli, 1'500'000, 3);
    cli.addFlag("smoke", "CI-sized run: same storm, shorter traffic");
    cli.parse(argc, argv);

    bench::DrillSpec spec = bench::drillSpec(cli);
    const u32 shards = static_cast<u32>(cli.integer("shards"));
    spec.initialTenants = 12;
    spec.churn.meanInterarrival = 30'000;
    spec.churn.meanLifetime = 400'000;
    if (cli.flag("smoke"))
        spec.totalRefs = std::min<u64>(spec.totalRefs, 250'000);
    if (shards < 2)
        fatal("--shards must be >= 2 (a remap needs a healthy "
              "destination)");

    // The storm: every chaos kind, with at least one whole-shard
    // outage so the quarantine -> remap -> degrade ladder must climb.
    // At an epoch every kEpochRefs references, the smoke target covers
    // the whole window.
    mc::ChaosSpec chaos;
    chaos.seed = spec.seed;
    chaos.windowStart = 4;
    chaos.windowEnd = 48;
    chaos.transientFlips = 8;
    chaos.hardFaults = 10;
    chaos.shardOutages = 1;
    chaos.shardStalls = 2;
    chaos.stallEpochs = 3;

    mc::ServiceOptions options;
    options.withShards(shards)
        .withGuardian(true)
        .withChaos(chaos)
        .withAdmitWatermarks(0.95, 0.85)
        // Generous slack: the drill gates on BOUNDED re-convergence
        // under a storm, not on QoS precision (the tests pin the exact
        // criterion deterministically).
        .withRecoverySlack(0.25);
    options.cache.seed = spec.seed;
    mc::Service service(options);

    bench::banner("molcached chaos storm drill");
    std::printf("workers %u, shards %u, target %llu references, an epoch "
                "every %llu, storm: %u flips + %u hard faults + %u "
                "outage(s) + %u stall(s), settle bound %llu epochs\n",
                spec.workers, shards,
                static_cast<unsigned long long>(spec.totalRefs),
                static_cast<unsigned long long>(bench::kEpochRefs),
                chaos.transientFlips, chaos.hardFaults, chaos.shardOutages,
                chaos.shardStalls,
                static_cast<unsigned long long>(bench::kSettleEpochs));

    bench::ChurnDrill drill(service, spec);
    drill.run(
        [&service](const mc::TenantHandle &handle,
                   const ChurnTenantProfile &profile, RandomSource &rng,
                   u64) -> u64 {
            for (u64 i = 0; i < bench::kBurstRefs; ++i) {
                const Addr addr = churnAddress(profile, rng);
                const bool write = churnIsWrite(profile, rng);
                const mc::AccessOutcome outcome =
                    service.accessChecked(handle, addr, write);
                if (outcome.status == mc::AccessStatus::Overloaded)
                    return outcome.retryAfterEpochs;
            }
            return 0;
        },
        [](const mc::Service &svc) {
            return resilienceQuiet(svc.summary().resilience);
        });
    const mc::ServiceSummary summary = drill.finish();
    const mc::ServiceResilienceSummary &res = summary.resilience;

    const auto n = [](u64 v) { return std::to_string(v); };
    bench::report(cli, summary,
                  {{"chaos flips", n(res.chaosTransientFlips)},
                   {"chaos hard faults", n(res.chaosHardFaults)},
                   {"chaos outages", n(res.chaosShardOutages)},
                   {"chaos stalls", n(res.chaosShardStalls)},
                   {"shards quarantined", n(res.shardsQuarantined)},
                   {"shards drained", n(res.shardsDrained)},
                   {"tenants remapped", n(res.tenantsRemapped)},
                   {"remap invalidations", n(res.remapInvalidations)},
                   {"remap forced misses", n(res.remapForcedMisses)},
                   {"accesses shed", n(res.accessesShed)},
                   {"shed bursts", n(drill.shedBursts())},
                   {"max epochs to drain", n(res.maxEpochsToDrain)},
                   {"max epochs to remap", n(res.maxEpochsToRemap)},
                   {"max epochs back to goal", n(res.maxEpochsBackToGoal)}});

    bench::Gate gate;
    gate(drill.settled(), "resilience plane not quiet within the epoch "
                          "bound");
    bench::gateDrill(gate, summary);
    gate(res.chaosPending == 0, "chaos events left unfired");
    gate(res.chaosShardOutages >= 1, "the storm fired no shard outage");
    gate(res.shardsQuarantined >= 1, "the outage quarantined no shard");
    gate(res.shardsDrained == res.shardsQuarantined,
         "a quarantined shard never drained");
    gate(res.remapsPending == 0, "tenants still waiting for a remap");
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
