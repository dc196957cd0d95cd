/**
 * @file
 * molcached churn drill — ROADMAP item 1's acceptance scenario and the
 * concurrency gate for src/service/ (docs/molcached.md).
 *
 * N worker threads hammer a mc::Service under fault-free tenant churn
 * (bench/churn_drill.hpp): tenants attach with heterogeneous footprints
 * and goals, live out an exponential lifetime under guardian
 * admission/resize/eviction, then detach, while the epochs drain
 * departures and run the InvariantChecker audit.  Each worker
 * alternates per-reference access() bursts with accessBatch() bursts,
 * so both hot paths race live attach/detach/epochs in every run.
 *
 * Exit status is the drill's own sanity gate (the CI tsan and
 * adversarial jobs run `service_churn --smoke`): it fails on any
 * invariant violation, any contract violation observed by any thread,
 * or any departed tenant left undrained after the final epoch.  With
 * one worker the stdout is a function of the seed (a ctest pins its
 * digest).  --json writes the schema-versioned service_summary
 * document — the telemetry artifact the adversarial job uploads.
 */

#include <array>

#include "churn_drill.hpp"

using namespace molcache;

int
main(int argc, char **argv)
{
    CliParser cli("service_churn",
                  "molcached multi-tenant churn drill (ROADMAP item 1)");
    bench::addDrillOptions(cli, 2'000'000, 2);
    cli.addOption("max-tenants", "48", "admission cap on live tenants");
    cli.addFlag("smoke",
                "CI-sized run: same dynamics, ~10x shorter, exit "
                "status is the sanity gate");
    cli.parse(argc, argv);

    bench::DrillSpec spec = bench::drillSpec(cli);
    const u32 shards = static_cast<u32>(cli.integer("shards"));
    const u32 maxTenants = static_cast<u32>(cli.integer("max-tenants"));
    if (cli.flag("smoke")) {
        spec.totalRefs = std::min<u64>(spec.totalRefs, 200'000);
        spec.churn.meanInterarrival = 4'000;
        spec.churn.meanLifetime = 40'000;
    }

    mc::ServiceOptions options;
    options.withShards(shards).withMaxTenants(maxTenants).withGuardian(true);
    options.cache.seed = spec.seed;
    mc::Service service(options);

    bench::banner("molcached service churn drill");
    std::printf("workers %u, shards %u, target %llu references, an epoch "
                "every %llu, admission cap %u\n",
                spec.workers, shards,
                static_cast<unsigned long long>(spec.totalRefs),
                static_cast<unsigned long long>(bench::kEpochRefs),
                maxTenants);

    bench::ChurnDrill drill(service, spec);
    drill.run(
        [&service](const mc::TenantHandle &handle,
                   const ChurnTenantProfile &profile, RandomSource &rng,
                   u64 slot) -> u64 {
            std::array<mc::Service::TenantAccess, bench::kBurstRefs> refs;
            for (mc::Service::TenantAccess &ref : refs) {
                ref.addr = churnAddress(profile, rng);
                ref.write = churnIsWrite(profile, rng);
            }
            if (slot % 2 == 0) {
                for (const mc::Service::TenantAccess &ref : refs)
                    service.access(handle, ref.addr, ref.write);
            } else {
                std::array<AccessResult, bench::kBurstRefs> results;
                service.accessBatch(handle, refs, results);
            }
            return 0;
        },
        [](const mc::Service &) { return true; });
    const mc::ServiceSummary summary = drill.finish();

    bench::report(cli, summary, {});
    bench::Gate gate;
    bench::gateDrill(gate, summary);
    return gate.verdict("PASS: churn drill clean");
}
