/**
 * @file
 * The resilience plane of mc::Service, deterministically: chaos
 * schedules, the quarantine -> remap -> degrade ladder, overload
 * backpressure, and the recovery-SLO telemetry (docs/fault_model.md,
 * "Service-level faults & the degradation ladder").
 *
 * Everything runs with epochMillis == 0 so the test paces the control
 * plane through runEpochNow(); chaos targets are predicted by building
 * the SAME seeded ChaosSchedule the service builds internally, so
 * tenants can be pinned onto (or away from) the doomed shard.  The
 * concurrent storm is bench/chaos_drill's job, not this file's.
 */

#include <gtest/gtest.h>

#include "service/chaos.hpp"
#include "service/service.hpp"
#include "service/service_json.hpp"

#include <set>
#include <sstream>
#include <string>

namespace molcache {
namespace {

mc::ServiceOptions
manualOptions(u32 shards = 2)
{
    mc::ServiceOptions options;
    options.withShards(shards).withEpochMillis(0);
    return options;
}

u32
shardMolecules(const mc::ServiceOptions &options)
{
    return options.cache.moleculesPerTile * options.cache.tilesPerCluster;
}

/** The schedule the service will build for @p options — the test's
 * crystal ball for chaos targets. */
mc::ChaosSchedule
predictSchedule(const mc::ServiceOptions &options)
{
    return mc::ChaosSchedule::build(options.chaos, options.shards,
                                    shardMolecules(options),
                                    options.cache.linesPerMolecule());
}

/** First event of @p kind in the predicted schedule (asserts one). */
mc::ChaosEvent
firstEvent(const mc::ChaosSchedule &schedule, mc::ChaosKind kind)
{
    for (const mc::ChaosEvent &event : schedule.events())
        if (event.kind == kind)
            return event;
    ADD_FAILURE() << "no " << mc::chaosKindName(kind)
                  << " in the schedule";
    return {};
}

/* ------------------------------------------------------------------ */
/* ChaosSchedule                                                       */

TEST(ChaosScheduleTest, BuildIsDeterministicSortedAndWindowed)
{
    mc::ChaosSpec spec;
    spec.seed = 42;
    spec.windowStart = 3;
    spec.windowEnd = 17;
    spec.transientFlips = 5;
    spec.hardFaults = 4;
    spec.shardOutages = 2;
    spec.shardStalls = 3;
    const mc::ChaosSchedule a = mc::ChaosSchedule::build(spec, 4, 256, 8);
    const mc::ChaosSchedule b = mc::ChaosSchedule::build(spec, 4, 256, 8);
    ASSERT_EQ(a.events().size(), b.events().size());
    ASSERT_EQ(a.events().size(), 5u + 4u + 2u + 3u);
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].shard, b.events()[i].shard);
        EXPECT_EQ(a.events()[i].molecule, b.events()[i].molecule);
        EXPECT_GE(a.events()[i].epoch, spec.windowStart);
        EXPECT_LE(a.events()[i].epoch, spec.windowEnd);
        EXPECT_LT(a.events()[i].shard, 4u);
        EXPECT_LT(a.events()[i].molecule, 256u);
        if (i > 0) {
            EXPECT_LE(a.events()[i - 1].epoch, a.events()[i].epoch)
                << "events must be sorted by epoch";
        }
    }
    // A different seed moves the storm.
    spec.seed = 43;
    const mc::ChaosSchedule c = mc::ChaosSchedule::build(spec, 4, 256, 8);
    bool differs = false;
    for (size_t i = 0; i < c.events().size(); ++i)
        differs = differs || c.events()[i].epoch != a.events()[i].epoch ||
                  c.events()[i].shard != a.events()[i].shard;
    EXPECT_TRUE(differs);
}

TEST(ChaosScheduleTest, OutagesAreCappedAndHitDistinctShards)
{
    mc::ChaosSpec spec;
    spec.shardOutages = 7; // asks for more than shards - 1
    spec.windowStart = 1;
    spec.windowEnd = 10;
    const mc::ChaosSchedule three = mc::ChaosSchedule::build(spec, 3, 64, 8);
    std::set<u32> hit;
    u32 outages = 0;
    for (const mc::ChaosEvent &event : three.events())
        if (event.kind == mc::ChaosKind::ShardOutage) {
            ++outages;
            hit.insert(event.shard);
        }
    EXPECT_EQ(outages, 2u) << "capped at shards - 1";
    EXPECT_EQ(hit.size(), outages) << "distinct shards";
    // A single-shard service gets no outages at all: there would be no
    // healthy destination to remap onto.
    const mc::ChaosSchedule one = mc::ChaosSchedule::build(spec, 1, 64, 8);
    for (const mc::ChaosEvent &event : one.events())
        EXPECT_NE(event.kind, mc::ChaosKind::ShardOutage);
}

TEST(ChaosScheduleTest, DrainOneHandsOutDueEventsThenStops)
{
    mc::ChaosSpec spec;
    spec.windowStart = 2;
    spec.windowEnd = 2;
    spec.transientFlips = 3;
    mc::ChaosSchedule schedule = mc::ChaosSchedule::build(spec, 2, 64, 8);
    EXPECT_EQ(schedule.pending(), 3u);
    EXPECT_EQ(schedule.drainOne(1), nullptr) << "nothing due before the "
                                                "window";
    EXPECT_EQ(schedule.pending(), 3u);
    u32 drained = 0;
    while (schedule.drainOne(2) != nullptr)
        ++drained;
    EXPECT_EQ(drained, 3u);
    EXPECT_EQ(schedule.pending(), 0u);
    EXPECT_EQ(schedule.drainOne(100), nullptr);
}

/* ------------------------------------------------------------------ */
/* AttachError names and per-reason counters                           */

TEST(ServiceChaosTest, AttachErrorNameCoversEveryReason)
{
    // Every enum value must map to a distinct, stable name — the JSON
    // attach_rejects keys.  A new AttachError that falls through to
    // the "unknown" default is a bug this test pins down.
    const std::set<std::string> expected = {
        "none",       "too-many-tenants",  "no-asid",
        "bad-spec",   "overloaded",        "shard-unavailable"};
    std::set<std::string> seen;
    for (size_t i = 0; i < mc::kAttachErrorCount; ++i) {
        const char *name =
            mc::attachErrorName(static_cast<mc::AttachError>(i));
        EXPECT_STRNE(name, "unknown") << "enum value " << i;
        seen.insert(name);
    }
    EXPECT_EQ(seen, expected);
}

TEST(ServiceChaosTest, AttachRejectionsAreCountedPerReason)
{
    mc::ServiceOptions options = manualOptions();
    options.withMaxTenants(1);
    mc::Service service(options);

    mc::TenantHandle keeper = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(keeper);

    mc::TenantSpec bad;
    bad.missRateGoal = 2.0;
    mc::AttachError error = mc::AttachError::None;
    EXPECT_FALSE(service.attach(bad, &error));
    EXPECT_EQ(error, mc::AttachError::BadSpec);
    EXPECT_FALSE(service.attach(bad, &error));

    error = mc::AttachError::None;
    EXPECT_FALSE(service.attach(mc::TenantSpec{}, &error));
    EXPECT_EQ(error, mc::AttachError::TooManyTenants);

    service.runEpochNow();
    const mc::ServiceResilienceSummary res =
        service.summary().resilience;
    using Reject = mc::AttachError;
    EXPECT_EQ(res.attachRejects[static_cast<size_t>(Reject::BadSpec)], 2u);
    EXPECT_EQ(
        res.attachRejects[static_cast<size_t>(Reject::TooManyTenants)], 1u);
    EXPECT_EQ(res.attachRejects[static_cast<size_t>(Reject::None)], 0u);
    // Legacy rejection reasons alone must NOT flip the telemetry onto
    // the resilience schema (fault-free byte-stability).
    EXPECT_FALSE(res.active());
}

/* ------------------------------------------------------------------ */
/* The degradation ladder                                              */

/** Options with a single whole-shard outage at epoch 1 and nothing
 * else; returns the doomed shard through @p victim. */
mc::ServiceOptions
outageOptions(u32 *victim, u32 shards = 2)
{
    mc::ServiceOptions options = manualOptions(shards);
    mc::ChaosSpec chaos;
    chaos.seed = 7;
    chaos.windowStart = 1;
    chaos.windowEnd = 1;
    chaos.shardOutages = 1;
    options.withChaos(chaos);
    *victim =
        firstEvent(predictSchedule(options), mc::ChaosKind::ShardOutage)
            .shard;
    return options;
}

TEST(ServiceChaosTest, OutageQuarantinesTheShardAndRemapsItsTenants)
{
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    const u32 survivor = victim == 0 ? 1u : 0u;

    mc::TenantSpec pinned;
    pinned.name = "doomed";
    pinned.shard = victim;
    mc::TenantHandle doomed = service.attach(pinned);
    ASSERT_TRUE(doomed);
    for (u64 i = 0; i < 500; ++i)
        service.access(doomed, 0x10000 + i * 64);

    service.runEpochNow(); // outage -> quarantine -> remap, one epoch
    const mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.resilience.chaosShardOutages, 1u);
    EXPECT_EQ(summary.resilience.shardsQuarantined, 1u);
    EXPECT_EQ(summary.resilience.tenantsRemapped, 1u);
    EXPECT_EQ(summary.resilience.remapsPending, 0u);
    ASSERT_EQ(summary.shards.size(), 2u);
    EXPECT_TRUE(summary.shards[victim].quarantined);
    EXPECT_FALSE(summary.shards[survivor].quarantined);
    EXPECT_EQ(summary.shards[victim].healthyMolecules, 0u);

    // The handle follows the remap: same tenant object, new home; the
    // pre-remap access counters are carried across.
    EXPECT_EQ(doomed.shard(), survivor);
    ASSERT_EQ(summary.tenants.size(), 1u);
    EXPECT_EQ(summary.tenants[0].shard, survivor);
    EXPECT_EQ(summary.tenants[0].remaps, 1u);
    EXPECT_TRUE(summary.tenants[0].recovering);
    EXPECT_EQ(summary.resilience.tenantsRecovering, 1u);
    EXPECT_GE(summary.tenants[0].accesses, 500u) << "carried counters";

    // And it still serves through the re-homed routing.
    service.access(doomed, 0x10000);

    // Recovery: with traffic flowing, the EWMA re-converges within a
    // bounded number of epochs and the SLO records it.
    bool recovered = false;
    for (u32 epoch = 0; epoch < 20 && !recovered; ++epoch) {
        for (u64 i = 0; i < 2000; ++i)
            service.access(doomed, 0x10000 + i % 128 * 64);
        service.runEpochNow();
        recovered = !service.summary().tenants[0].recovering;
    }
    EXPECT_TRUE(recovered);
    EXPECT_EQ(service.summary().resilience.tenantsRecovering, 0u);
    EXPECT_GE(service.summary().resilience.maxEpochsBackToGoal, 1u);
    EXPECT_GT(service.summary().resilience.remapForcedMisses, 0u);
}

TEST(ServiceChaosTest, QuarantinedShardRejectsPinnedAttaches)
{
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    service.runEpochNow();

    mc::TenantSpec pinned;
    pinned.shard = victim;
    mc::AttachError error = mc::AttachError::None;
    EXPECT_FALSE(service.attach(pinned, &error));
    EXPECT_EQ(error, mc::AttachError::ShardUnavailable);

    // Unpinned placement routes around the quarantine.
    mc::TenantHandle routed = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(routed);
    EXPECT_NE(routed.shard(), victim);

    service.runEpochNow();
    const mc::ServiceResilienceSummary res = service.summary().resilience;
    EXPECT_EQ(res.attachRejects[static_cast<size_t>(
                  mc::AttachError::ShardUnavailable)],
              1u);
    EXPECT_TRUE(res.active());
}

TEST(ServiceChaosTest, GoalsDegradeProportionallyToLostCapacity)
{
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    mc::TenantSpec spec;
    spec.missRateGoal = 0.2;
    mc::TenantHandle tenant = service.attach(spec);
    ASSERT_TRUE(tenant);

    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    ASSERT_EQ(summary.tenants.size(), 1u);
    // Half the molecules are gone: goal x (512 / 256) = 0.4.
    EXPECT_DOUBLE_EQ(summary.tenants[0].goal, 0.2);
    EXPECT_DOUBLE_EQ(summary.tenants[0].effectiveGoal, 0.4);
    EXPECT_TRUE(summary.tenants[0].degraded);
}

TEST(ServiceChaosTest, PartialLossQuarantineInvalidatesResidentLines)
{
    // A single hard-faulted molecule on a 2-molecule shard reaches the
    // kQuarantineThreshold of half the shard: the shard is quarantined
    // while its regions still hold lines, so the remap's invalidation
    // churn is visible in the telemetry.  The seed is the first whose
    // fault lands on the free molecule, sparing the tenant's one.
    mc::ServiceOptions options = manualOptions();
    options.cache.moleculesPerTile = 2;
    options.cache.tilesPerCluster = 1;
    mc::ChaosSpec chaos;
    chaos.seed = 1;
    chaos.windowStart = 1;
    chaos.windowEnd = 1;
    chaos.hardFaults = 1;
    options.withChaos(chaos);
    const u32 victim =
        firstEvent(predictSchedule(options), mc::ChaosKind::HardFault)
            .shard;
    mc::Service service(options);

    mc::TenantSpec pinned;
    pinned.shard = victim;
    mc::TenantHandle tenant = service.attach(pinned);
    ASSERT_TRUE(tenant);
    for (u64 i = 0; i < 2000; ++i)
        service.access(tenant, 0x4000 + i % 256 * 64);

    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.resilience.shardsQuarantined, 1u);
    EXPECT_EQ(summary.resilience.tenantsRemapped, 1u);
    EXPECT_GT(summary.resilience.remapInvalidations, 0u)
        << "the warm region's resident lines count as remap churn";
    EXPECT_EQ(summary.shards[victim].healthyMolecules,
              shardMolecules(options) - 1u);
}

/* ------------------------------------------------------------------ */
/* Departure edge cases around a quarantine                            */

TEST(ServiceChaosTest, DetachDuringQuarantineDrainsInPlace)
{
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    mc::TenantSpec pinned;
    pinned.shard = victim;
    mc::TenantHandle tenant = service.attach(pinned);
    ASSERT_TRUE(tenant);

    // Departing before the storm: the tenant must NOT be remapped (it
    // is leaving anyway) — it drains on the quarantined shard once the
    // last handle drops.
    service.detach(tenant);
    service.runEpochNow(); // outage fires; tenant still held
    mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.resilience.tenantsRemapped, 0u);
    EXPECT_EQ(summary.resilience.shardsQuarantined, 1u);
    EXPECT_EQ(summary.tenantsDrained, 0u);
    // The held handle still serves (the decommissioned region answers
    // uncacheably rather than faulting).
    service.access(tenant, 0x1000);

    tenant.reset();
    service.runEpochNow();
    summary = service.summary();
    EXPECT_EQ(summary.tenantsDrained, 1u);
    EXPECT_EQ(summary.resilience.shardsDrained, 1u);
    EXPECT_GE(summary.resilience.maxEpochsToDrain, 1u);
}

TEST(ServiceChaosTest, DoubleDetachAfterRemapIsStillIdempotent)
{
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    mc::TenantSpec pinned;
    pinned.shard = victim;
    mc::TenantHandle tenant = service.attach(pinned);
    ASSERT_TRUE(tenant);

    service.runEpochNow(); // remapped to the survivor
    EXPECT_NE(tenant.shard(), victim);
    service.detach(tenant);
    service.detach(tenant); // identity-matched: second is a no-op
    tenant.reset();
    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.tenantsDetached, 1u);
    EXPECT_EQ(summary.tenantsDrained, 1u);
    EXPECT_EQ(summary.tenantsLive, 0u);
}

TEST(ServiceChaosTest, HandleOutlivesItsDecommissionedShard)
{
    // The handle is attached, its whole shard dies, the tenant is
    // re-homed — and the ORIGINAL handle keeps working throughout:
    // routing is re-read per access, never cached by the caller.
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    mc::TenantSpec pinned;
    pinned.shard = victim;
    mc::TenantHandle tenant = service.attach(pinned);
    ASSERT_TRUE(tenant);
    const u32 asidBefore = tenant.asid().value();
    EXPECT_EQ(tenant.shard(), victim);

    service.runEpochNow();
    EXPECT_NE(tenant.shard(), victim);
    for (u64 i = 0; i < 1000; ++i)
        service.access(tenant, 0x9000 + i * 64);
    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    ASSERT_EQ(summary.tenants.size(), 1u);
    EXPECT_GE(summary.tenants[0].accesses, 1000u);
    EXPECT_EQ(summary.tenants[0].asid, tenant.asid().value());
    // The ASID may or may not change across shards; the (asid,
    // generation) pair in the summary must match the handle's view.
    EXPECT_EQ(summary.tenants[0].generation, tenant.generation());
    (void)asidBefore;
}

TEST(ServiceChaosTest, AsidRecyclesIntoTheRemappedSlotWithNewGeneration)
{
    u32 victim = 0;
    mc::Service service(outageOptions(&victim));
    const u32 survivor = victim == 0 ? 1u : 0u;
    mc::TenantSpec pinned;
    pinned.shard = victim;
    mc::TenantHandle tenant = service.attach(pinned);
    ASSERT_TRUE(tenant);

    service.runEpochNow(); // remap onto the survivor
    ASSERT_EQ(tenant.shard(), survivor);
    const u16 remappedAsid = tenant.asid().value();
    const u32 remappedGeneration = tenant.generation();

    // Retire the remapped tenant, then attach a fresh one onto the
    // survivor: the pool hands the recycled ASID back, and the retired
    // stats slot's generation bump keeps the identities distinct.
    service.detach(tenant);
    tenant.reset();
    service.runEpochNow();

    mc::TenantSpec fresh;
    fresh.shard = survivor;
    mc::TenantHandle reborn = service.attach(fresh);
    ASSERT_TRUE(reborn);
    EXPECT_EQ(reborn.asid().value(), remappedAsid);
    EXPECT_GT(reborn.generation(), remappedGeneration);
}

/* ------------------------------------------------------------------ */
/* Backpressure and overload protection                                */

TEST(ServiceChaosTest, StallShedsCheckedAccessesWithRetryAfter)
{
    mc::ServiceOptions options = manualOptions();
    mc::ChaosSpec chaos;
    chaos.seed = 5;
    chaos.windowStart = 1;
    chaos.windowEnd = 1;
    chaos.shardStalls = 1;
    chaos.stallEpochs = 3;
    options.withChaos(chaos);
    const mc::ChaosEvent stall =
        firstEvent(predictSchedule(options), mc::ChaosKind::ShardStall);
    mc::Service service(options);

    mc::TenantSpec pinned;
    pinned.shard = stall.shard;
    mc::TenantHandle tenant = service.attach(pinned);
    ASSERT_TRUE(tenant);
    EXPECT_EQ(service.backpressure(tenant), mc::AccessStatus::Ok);

    service.runEpochNow(); // the stall fires: epochs [2, 4] shed
    u64 retryAfter = 0;
    EXPECT_EQ(service.backpressure(tenant, &retryAfter),
              mc::AccessStatus::Overloaded);
    EXPECT_EQ(retryAfter, chaos.stallEpochs);

    const mc::AccessOutcome shed = service.accessChecked(tenant, 0x1000);
    EXPECT_EQ(shed.status, mc::AccessStatus::Overloaded);
    EXPECT_EQ(shed.retryAfterEpochs, chaos.stallEpochs);
    // Plain access() deliberately ignores stalls (advisory contract).
    service.access(tenant, 0x1000);

    for (u64 i = 0; i < chaos.stallEpochs; ++i)
        service.runEpochNow();
    EXPECT_EQ(service.backpressure(tenant), mc::AccessStatus::Ok);
    const mc::AccessOutcome served = service.accessChecked(tenant, 0x1040);
    EXPECT_EQ(served.status, mc::AccessStatus::Ok);

    service.runEpochNow(); // merge the post-stall access into the summary
    const mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.resilience.chaosShardStalls, 1u);
    EXPECT_EQ(summary.resilience.accessesShed, 1u);
    EXPECT_EQ(summary.accesses, 2u) << "the shed access never reached a "
                                       "shard";
}

TEST(ServiceChaosTest, AdmissionWatermarksCloseAndReopenWithHysteresis)
{
    mc::ServiceOptions options = manualOptions();
    const double healthy = 2.0 * shardMolecules(options);
    // Close above 5 demanded molecules, reopen at or below 4.
    options.withAdmitWatermarks(5.0 / healthy, 4.0 / healthy);
    mc::Service service(options);

    mc::TenantSpec two;
    two.floorMolecules = 2;
    mc::TenantHandle a = service.attach(two);
    mc::TenantHandle b = service.attach(two);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b); // demand 4 of 5

    mc::AttachError error = mc::AttachError::None;
    EXPECT_FALSE(service.attach(two, &error)) << "projected 6 > 5";
    EXPECT_EQ(error, mc::AttachError::Overloaded);

    // Hysteresis: once closed, even a demand that fits under the HIGH
    // watermark is rejected until demand falls below the LOW one.
    mc::TenantSpec one;
    one.floorMolecules = 1;
    EXPECT_FALSE(service.attach(one, &error)) << "projected 5 <= high, "
                                                 "but admission is closed";
    EXPECT_EQ(error, mc::AttachError::Overloaded);

    // Departure sheds demand immediately (no epoch needed)...
    service.detach(b);
    b.reset();
    // ...projected 2 + 1 = 3 <= 4: admission reopens.
    mc::TenantHandle c = service.attach(one, &error);
    EXPECT_TRUE(c);
    EXPECT_EQ(error, mc::AttachError::None);

    service.runEpochNow();
    const mc::ServiceResilienceSummary res = service.summary().resilience;
    EXPECT_EQ(
        res.attachRejects[static_cast<size_t>(mc::AttachError::Overloaded)],
        2u);
    EXPECT_TRUE(res.active());
}

/* ------------------------------------------------------------------ */
/* Telemetry schema                                                    */

TEST(ServiceChaosTest, ResilienceJsonAppearsOnlyWhenEngaged)
{
    // Fault-free service: byte-identical legacy schema.
    {
        mc::Service service(manualOptions());
        mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
        service.runEpochNow();
        std::ostringstream out;
        JsonWriter json(out);
        mc::writeServiceSummaryDocument(json, service.summary());
        EXPECT_EQ(out.str().find("resilience"), std::string::npos);
        EXPECT_EQ(out.str().find("effective_goal"), std::string::npos);
        EXPECT_EQ(out.str().find("quarantined"), std::string::npos);
    }
    // Chaos on: the resilience block and the per-shard/per-tenant
    // resilience keys appear.
    {
        u32 victim = 0;
        mc::Service service(outageOptions(&victim));
        mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
        service.runEpochNow();
        std::ostringstream out;
        JsonWriter json(out);
        mc::writeServiceSummaryDocument(json, service.summary());
        const std::string text = out.str();
        for (const char *key :
             {"\"resilience\"", "\"chaos_shard_outages\"",
              "\"shards_quarantined\"", "\"attach_rejects\"",
              "\"shard-unavailable\"", "\"max_epochs_back_to_goal\"",
              "\"healthy_molecules\"", "\"quarantined\"",
              "\"effective_goal\"", "\"recovering\"", "\"miss_ewma\""})
            EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

} // namespace
} // namespace molcache
