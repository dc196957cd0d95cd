/**
 * @file
 * API semantics of mc::Service (molcached) — the single-threaded half
 * of the service suite.  The test paces epochs deterministically
 * through runEpochNow(); the concurrent half (drain under contention,
 * zero-allocation windows) lives in churn_soak_test.cpp.
 */

#include <gtest/gtest.h>

#include "service/service.hpp"
#include "service/service_json.hpp"

#include <sstream>

namespace molcache {
namespace {

/** Small per-shard geometry so floors/capacity tests stay readable. */
mc::ServiceOptions
manualOptions()
{
    mc::ServiceOptions options;
    options.withShards(2);
    return options;
}

TEST(ServiceOptionsTest, SetterRecordsCallSiteOnBadArgument)
{
    mc::ServiceOptions options;
    options.withShards(0).withEpochMillis(5);
    ASSERT_EQ(options.errors().size(), 2u);
    // Each recorded violation carries THIS file and names the knob.
    for (const std::string &error : options.errors())
        EXPECT_NE(error.find("service_test.cpp"), std::string::npos)
            << error;
    EXPECT_NE(options.errors()[0].find("service.shards"), std::string::npos);
    EXPECT_NE(options.errors()[1].find("service.epoch_millis"),
              std::string::npos);
}

TEST(ServiceOptionsDeathTest, ValidateIsFatalOnRecordedErrors)
{
    mc::ServiceOptions options;
    options.withRecoverySlack(1.5);
    EXPECT_EXIT(options.validate(), ::testing::ExitedWithCode(1),
                "service.recovery_slack");
}

TEST(ServiceOptionsDeathTest, ValidateRejectsMultiClusterShard)
{
    mc::ServiceOptions options;
    options.cache.clusters = 2; // a shard must be exactly one cluster
    EXPECT_EXIT(options.validate(), ::testing::ExitedWithCode(1),
                "cluster");
}

TEST(ServiceTest, AttachAccessDetachDrainLifecycle)
{
    mc::Service service(manualOptions());

    mc::TenantSpec spec;
    spec.name = "alpha";
    mc::AttachError error = mc::AttachError::BadSpec;
    mc::TenantHandle alpha = service.attach(spec, &error);
    ASSERT_TRUE(alpha);
    EXPECT_EQ(error, mc::AttachError::None);
    EXPECT_EQ(alpha.name(), "alpha");
    EXPECT_LT(alpha.shard(), service.shardCount());

    for (u64 i = 0; i < 1000; ++i)
        service.access(alpha, 0x1000 + i * 64, (i % 5) == 0);

    service.runEpochNow();
    mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.epoch, 1u);
    EXPECT_EQ(summary.accesses, 1000u);
    EXPECT_EQ(summary.accesses, summary.hits + summary.misses);
    EXPECT_EQ(summary.tenantsLive, 1u);
    ASSERT_EQ(summary.tenants.size(), 1u);
    EXPECT_EQ(summary.tenants[0].name, "alpha");
    EXPECT_GT(summary.invariantChecksRun, 0u);
    EXPECT_EQ(summary.invariantViolations, 0u);

    // detach() marks departure; the live handle must keep the region
    // registered and usable across epochs (drain waits for it).
    service.detach(alpha);
    service.runEpochNow();
    summary = service.summary();
    EXPECT_EQ(summary.tenantsDetached, 1u);
    EXPECT_EQ(summary.tenantsDrained, 0u);
    EXPECT_EQ(summary.tenantsLive, 0u) << "departing must not count live";
    service.access(alpha, 0x1000); // still valid: handle pins the region

    alpha.reset();
    service.runEpochNow();
    summary = service.summary();
    EXPECT_EQ(summary.tenantsDrained, 1u);
    EXPECT_TRUE(summary.tenants.empty());
    // Lifetime counters survive the drain.
    EXPECT_EQ(summary.accesses, 1001u);
}

TEST(ServiceTest, DetachIsIdempotent)
{
    mc::Service service(manualOptions());
    mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(tenant);
    service.detach(tenant);
    service.detach(tenant);
    tenant.reset();
    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.tenantsDetached, 1u);
    EXPECT_EQ(summary.tenantsDrained, 1u);
}

TEST(ServiceTest, AttachEnforcesAdmissionCap)
{
    mc::ServiceOptions options = manualOptions();
    options.withMaxTenants(1);
    mc::Service service(options);

    mc::TenantHandle first = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(first);
    mc::AttachError error = mc::AttachError::None;
    EXPECT_FALSE(service.attach(mc::TenantSpec{}, &error));
    EXPECT_EQ(error, mc::AttachError::TooManyTenants);
    EXPECT_STREQ(mc::attachErrorName(error), "too-many-tenants");

    // Departure frees the admission slot as soon as the drain runs.
    service.detach(first);
    first.reset();
    service.runEpochNow();
    EXPECT_TRUE(service.attach(mc::TenantSpec{}, &error));
    EXPECT_EQ(error, mc::AttachError::None);
}

TEST(ServiceTest, AttachRejectsBadSpecs)
{
    mc::Service service(manualOptions());
    mc::AttachError error = mc::AttachError::None;

    mc::TenantSpec badGoal;
    badGoal.missRateGoal = 1.5;
    EXPECT_FALSE(service.attach(badGoal, &error));
    EXPECT_EQ(error, mc::AttachError::BadSpec);

    mc::TenantSpec badShard;
    badShard.shard = service.shardCount();
    EXPECT_FALSE(service.attach(badShard, &error));
    EXPECT_EQ(error, mc::AttachError::BadSpec);

    mc::TenantSpec badLine;
    badLine.lineMultiple = 0;
    EXPECT_FALSE(service.attach(badLine, &error));
    EXPECT_EQ(error, mc::AttachError::BadSpec);
}

TEST(ServiceTest, AsidRecyclingBumpsGeneration)
{
    mc::Service service(manualOptions());
    mc::TenantSpec pinned;
    pinned.shard = 0;

    mc::TenantHandle first = service.attach(pinned);
    ASSERT_TRUE(first);
    const Asid asid = first.asid();
    EXPECT_EQ(first.generation(), 0u);

    service.detach(first);
    first.reset();
    service.runEpochNow();

    // The freed ASID is recycled into the same shard — but under a new
    // generation, so (asid, generation) still names tenants uniquely.
    mc::TenantHandle second = service.attach(pinned);
    ASSERT_TRUE(second);
    EXPECT_EQ(second.asid(), asid);
    EXPECT_EQ(second.generation(), 1u);

    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    ASSERT_EQ(summary.tenants.size(), 1u);
    EXPECT_EQ(summary.tenants[0].generation, 1u);
}

TEST(ServiceTest, SetGoalShowsUpInSummary)
{
    mc::Service service(manualOptions());
    mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(tenant);

    service.setGoal(tenant, 0.33);
    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    ASSERT_EQ(summary.tenants.size(), 1u);
    EXPECT_DOUBLE_EQ(summary.tenants[0].goal, 0.33);
}

TEST(ServiceTest, ShardPlacementHonoursPinAndBalances)
{
    mc::Service service(manualOptions());

    mc::TenantSpec pinned;
    pinned.shard = 1;
    mc::TenantHandle a = service.attach(pinned);
    ASSERT_TRUE(a);
    EXPECT_EQ(a.shard(), 1u);

    // Least-loaded placement must route the wildcard to the empty shard.
    mc::TenantHandle b = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(b);
    EXPECT_EQ(b.shard(), 0u);
}

TEST(ServiceTest, SummaryMergesShardCounters)
{
    mc::Service service(manualOptions());
    mc::TenantSpec shard0, shard1;
    shard0.shard = 0;
    shard1.shard = 1;
    mc::TenantHandle a = service.attach(shard0);
    mc::TenantHandle b = service.attach(shard1);
    ASSERT_TRUE(a && b);
    for (u64 i = 0; i < 64; ++i) {
        service.access(a, i * 64);
        service.access(b, i * 64);
    }
    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    ASSERT_EQ(summary.shards.size(), 2u);
    u64 accesses = 0, hits = 0, misses = 0;
    for (const mc::ServiceShardSummary &shard : summary.shards) {
        accesses += shard.accesses;
        hits += shard.hits;
        misses += shard.misses;
    }
    EXPECT_EQ(summary.accesses, accesses);
    EXPECT_EQ(summary.hits, hits);
    EXPECT_EQ(summary.misses, misses);
    EXPECT_EQ(summary.accesses, 128u);
}

TEST(ServiceTest, ZeroGoalTakesTheCacheDefault)
{
    mc::ServiceOptions options = manualOptions();
    options.cache.defaultMissRateGoal = 0.2;
    mc::Service service(options);
    mc::TenantHandle tenant = service.attach(mc::TenantSpec{}); // goal 0
    ASSERT_TRUE(tenant);

    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    ASSERT_EQ(summary.tenants.size(), 1u);
    EXPECT_DOUBLE_EQ(summary.tenants[0].goal, 0.2);
}

TEST(ServiceTest, SummaryJsonCarriesSchemaAndKind)
{
    mc::Service service(manualOptions());
    mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(tenant);
    service.access(tenant, 0x40);
    service.runEpochNow();

    std::ostringstream out;
    JsonWriter json(out);
    mc::writeServiceSummaryDocument(json, service.summary());
    const std::string text = out.str();
    EXPECT_NE(text.find("\"schemaVersion\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\": \"service_summary\""), std::string::npos);
    EXPECT_NE(text.find("\"tenants\""), std::string::npos);
    EXPECT_NE(text.find("\"generation\""), std::string::npos);
}

/** accessBatch must be semantically identical to per-reference access:
 * same results out, same summary counters after — on two services
 * built from the same options and fed the same reference stream
 * (blocks sized to cross the 256-reference staging chunk). */
TEST(ServiceTest, AccessBatchMatchesScalarAccess)
{
    mc::Service scalarSvc(manualOptions());
    mc::Service batchSvc(manualOptions());
    mc::TenantSpec spec;
    spec.shard = 0;
    mc::TenantHandle scalarTenant = scalarSvc.attach(spec);
    mc::TenantHandle batchTenant = batchSvc.attach(spec);
    ASSERT_TRUE(scalarTenant);
    ASSERT_TRUE(batchTenant);

    std::vector<mc::Service::TenantAccess> refs;
    u64 x = 12345;
    for (u32 i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        refs.push_back({(x >> 20) % 4096 * 64, (x & 7) == 0});
    }
    std::vector<AccessResult> batched(refs.size());
    // Odd block size: blocks straddle the internal 256-entry chunks.
    for (size_t off = 0; off < refs.size(); off += 301) {
        const size_t n = std::min<size_t>(301, refs.size() - off);
        batchSvc.accessBatch(batchTenant,
                             {refs.data() + off, n},
                             {batched.data() + off, n});
    }
    for (size_t i = 0; i < refs.size(); ++i) {
        const AccessResult want =
            scalarSvc.access(scalarTenant, refs[i].addr, refs[i].write);
        EXPECT_EQ(want.hit, batched[i].hit) << i;
        EXPECT_EQ(want.level, batched[i].level) << i;
        EXPECT_EQ(want.latencyCycles, batched[i].latencyCycles) << i;
        EXPECT_EQ(want.energyNj, batched[i].energyNj) << i;
    }

    scalarSvc.runEpochNow();
    batchSvc.runEpochNow();
    const mc::ServiceSummary s = scalarSvc.summary();
    const mc::ServiceSummary b = batchSvc.summary();
    EXPECT_EQ(s.accesses, b.accesses);
    EXPECT_EQ(s.hits, b.hits);
    EXPECT_EQ(s.misses, b.misses);
}

} // namespace
} // namespace molcache
