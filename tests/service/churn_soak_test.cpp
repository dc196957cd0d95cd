/**
 * @file
 * Concurrent churn soak for mc::Service — the threaded half of the
 * service suite (the single-threaded API semantics live in
 * service_test.cpp).  Worker threads loop attach/access/detach against
 * a live service while the test paces epochs, asserting after every
 * round that the InvariantChecker is clean and every departed tenant
 * drained.  Between churn rounds it quiesces and measures an all-hit
 * access window under the counting allocator: the service facade must
 * preserve the core's zero-allocation steady-state access path
 * (docs/perf.md) — one shard-mutex lock is the only thing it may add.
 *
 * Own test binary: it replaces global operator new/delete, which must
 * not perturb the other suites.  CI runs it under TSan as part of the
 * service label selection (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "contract/contract.hpp"
#include "service/service.hpp"
#include "util/units.hpp"

namespace {

std::atomic<unsigned long long> g_heapAllocs{0};

void *
countedAlloc(std::size_t size)
{
    ++g_heapAllocs;
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++g_heapAllocs;
    const std::size_t rounded = (size + align - 1) / align * align;
    void *p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace molcache {
namespace {

mc::ServiceOptions
soakOptions()
{
    mc::ServiceOptions options;
    options.withShards(2);
    options.cache.resizePeriod = 256; // keep the control plane busy
    return options;
}

/**
 * One churn round: every thread attaches its own tenant, hammers it
 * (disjoint address windows, so shard traffic interleaves freely),
 * detaches and drops the handle; the main thread paces epochs the
 * whole time.  Returns the per-thread contract-counter delta sum.
 */
u64
churnRound(mc::Service &service, u32 threads, u32 accessesPerTenant)
{
    std::atomic<u64> contractDelta{0};
    std::atomic<u32> running{threads};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (u32 t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            const u64 before = contract::counters().total();
            mc::TenantSpec spec;
            spec.name = "soak" + std::to_string(t);
            mc::TenantHandle tenant = service.attach(spec);
            if (tenant) {
                const Addr base = static_cast<Addr>(t + 1) << 32;
                for (u32 i = 0; i < accessesPerTenant; ++i)
                    service.access(tenant, base + (i % 512) * 64,
                                   (i % 7) == 0);
                service.detach(tenant);
                tenant.reset();
            }
            contractDelta.fetch_add(contract::counters().total() - before,
                                    std::memory_order_relaxed);
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    // Epochs run concurrently with the churn: drains, audits and
    // summary rebuilds must all be safe against live workers.
    while (running.load(std::memory_order_acquire) != 0) {
        service.runEpochNow();
        std::this_thread::yield();
    }
    for (std::thread &worker : pool)
        worker.join();
    return contractDelta.load(std::memory_order_acquire);
}

TEST(ServiceChurnSoak, RepeatedThreadedChurnStaysClean)
{
    mc::Service service(soakOptions());
    const u32 threads = 8;

    for (u32 round = 0; round < 4; ++round) {
        const u64 violations = churnRound(service, threads, 4000);
        EXPECT_EQ(violations, 0u) << "round " << round;

        // All handles are dead: one more epoch must finish every drain.
        service.runEpochNow();
        const mc::ServiceSummary summary = service.summary();
        EXPECT_EQ(summary.tenantsDrained, summary.tenantsDetached)
            << "round " << round;
        EXPECT_EQ(summary.tenantsLive, 0u) << "round " << round;
        EXPECT_EQ(summary.invariantViolations, 0u) << "round " << round;
        EXPECT_GT(summary.invariantChecksRun, 0u) << "round " << round;
        EXPECT_EQ(summary.accesses, summary.hits + summary.misses);
    }
    // Every departure recycled its ASID, so lifetime churn has not
    // grown the per-shard tenant population.
    EXPECT_EQ(service.summary().tenantsAttached, 4u * threads);
}

TEST(ServiceChurnSoak, AccessPathStaysAllocationFreeBetweenChurnRounds)
{
    mc::ServiceOptions options = soakOptions();
    // No resize inside the measured window (same regime as the hotpath
    // allocation gate): the window must be pure steady-state hits.
    options.cache.resizePeriod = 1u << 30;
    options.cache.maxResizePeriod = 1u << 30;
    options.cache.initialMolecules = 2;
    options.cache.initialAllocation = InitialAllocation::Small;
    mc::Service service(options);

    // Churn in the background first, so the steady state we measure is
    // one reached *after* real concurrent traffic, not a fresh cache.
    churnRound(service, 4, 2000);
    service.runEpochNow();

    mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(tenant);
    // One molecule's worth of distinct lines: warmup fills every slot,
    // the measured passes all hit.
    const u32 lines = 128;
    for (int pass = 0; pass < 3; ++pass)
        for (u32 i = 0; i < lines; ++i)
            service.access(tenant, static_cast<Addr>(i) * 64,
                           (i % 7) == 0);

    u64 hits = 0;
    const unsigned long long before = g_heapAllocs.load();
    for (int pass = 0; pass < 10; ++pass)
        for (u32 i = 0; i < lines; ++i)
            hits += service.access(tenant, static_cast<Addr>(i) * 64).hit
                        ? 1
                        : 0;
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_EQ(hits, 10u * lines)
        << "measurement window must be all hits (steady state)";
    EXPECT_EQ(after - before, 0u)
        << "service access path must not allocate in steady state";

    // The epoch machinery may allocate (snapshots are built there) —
    // but it must not have been charged to the access window above.
    service.detach(tenant);
    tenant.reset();
    service.runEpochNow();
    EXPECT_EQ(service.summary().invariantViolations, 0u);
}

TEST(ServiceChurnSoak, DrainWaitsForForeignThreadHandle)
{
    mc::Service service(soakOptions());
    mc::TenantHandle tenant = service.attach(mc::TenantSpec{});
    ASSERT_TRUE(tenant);
    service.detach(tenant);

    // A worker still holding a copy keeps the region alive across
    // epochs on another thread.
    std::atomic<bool> stop{false};
    std::thread worker([&service, copy = tenant, &stop] {
        while (!stop.load(std::memory_order_acquire))
            service.access(copy, 0x80);
    });
    tenant.reset();
    for (int i = 0; i < 16; ++i)
        service.runEpochNow();
    EXPECT_EQ(service.summary().tenantsDrained, 0u)
        << "drain must wait for the worker's handle";

    stop.store(true, std::memory_order_release);
    worker.join();
    service.runEpochNow();
    const mc::ServiceSummary summary = service.summary();
    EXPECT_EQ(summary.tenantsDrained, 1u);
    EXPECT_EQ(summary.invariantViolations, 0u);
}

} // namespace
} // namespace molcache
