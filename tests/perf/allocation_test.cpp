/**
 * @file
 * Pins the zero-allocation property of the steady-state access path
 * (docs/perf.md): once the cache is warm, MolecularCache::access must
 * perform no heap allocations, on hits and on misses alike — probes
 * read the regions' placement in place and dense indices make the hit
 * path allocation-free, the coherence directory (a chunk table that grows
 * only with new address chunks, then a per-line table sized from the
 * cache geometry; invalidations as a bitmask) does the same for the
 * miss path, and this test is the gate that keeps it that way.
 *
 * The whole binary's global operator new/delete are replaced with
 * counting versions; each test samples the counter around a window of
 * all-hit or all-miss accesses and requires it not to move.  This TU
 * must stay its own test binary so the override cannot perturb the
 * other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/molecular_cache.hpp"
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
    // aligned_alloc requires the size to be a multiple of the alignment.
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

MolecularCacheParams
steadyParams(PlacementPolicy policy)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 1;
    p.placement = policy;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 2;
    p.resizePeriod = 1u << 30; // no resize inside the measured window
    p.maxResizePeriod = 1u << 30;
    return p;
}

void
expectZeroAllocSteadyState(PlacementPolicy policy)
{
    MolecularCache cache(steadyParams(policy));
    for (u16 a = 0; a < 2; ++a)
        cache.registerApplication(Asid{a}, 0.1);

    // Working set: one molecule's worth of distinct line slots per app.
    // Every line lands in its own slot, so warmup fills never displace
    // and every later access hits — the steady-state regime.
    std::vector<MemAccess> trace;
    for (u32 i = 0; i < 128; ++i) {
        for (u16 a = 0; a < 2; ++a) {
            trace.push_back({static_cast<Addr>(i) * 64, Asid{a},
                             i % 7 == 0 ? AccessType::Write
                                        : AccessType::Read});
        }
    }
    for (int pass = 0; pass < 3; ++pass)
        for (const MemAccess &m : trace)
            cache.access(m);

    u64 hits = 0;
    const unsigned long long before = g_heapAllocs.load();
    for (int pass = 0; pass < 10; ++pass)
        for (const MemAccess &m : trace)
            hits += cache.access(m).hit ? 1 : 0;
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_EQ(hits, 10u * trace.size())
        << "measurement window must be all hits (steady state)";
    EXPECT_EQ(after - before, 0u)
        << "steady-state accesses must not allocate";
}

TEST(HotpathAllocations, ZeroPerAccessRandom)
{
    expectZeroAllocSteadyState(PlacementPolicy::Random);
}

TEST(HotpathAllocations, ZeroPerAccessRandy)
{
    expectZeroAllocSteadyState(PlacementPolicy::Randy);
}

TEST(HotpathAllocations, ZeroPerAccessLruDirect)
{
    expectZeroAllocSteadyState(PlacementPolicy::LruDirect);
}

/** Misses allocate nothing either: each fill evicts a line and
 * inserts a new one, and the directory reuses its slots. */
TEST(HotpathAllocations, ZeroPerMissSteadyState)
{
    MolecularCache cache(steadyParams(PlacementPolicy::Randy));
    for (u16 a = 0; a < 2; ++a)
        cache.registerApplication(Asid{a}, 0.1);

    // 4096 distinct lines per app streamed through 2-molecule regions
    // (256 line slots): every line is long evicted before it returns.
    std::vector<MemAccess> trace;
    for (u32 i = 0; i < 4096; ++i) {
        for (u16 a = 0; a < 2; ++a) {
            trace.push_back({static_cast<Addr>(i) * 64, Asid{a},
                             i % 5 == 0 ? AccessType::Write
                                        : AccessType::Read});
        }
    }
    for (int pass = 0; pass < 3; ++pass)
        for (const MemAccess &m : trace)
            cache.access(m);

    u64 misses = 0;
    const unsigned long long before = g_heapAllocs.load();
    for (int pass = 0; pass < 4; ++pass)
        for (const MemAccess &m : trace)
            misses += cache.access(m).hit ? 0 : 1;
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_EQ(misses, 4u * trace.size())
        << "measurement window must be all misses (steady-state fills)";
    EXPECT_EQ(after - before, 0u)
        << "steady-state misses must not allocate";
}

/** Two apps on two clusters stream misses; @p shared gives both the
 * same addresses, so the directory runs per line, while disjoint
 * windows keep it coarse.  Either way a miss allocates nothing. */
void
expectZeroAllocTwoClusterMisses(bool shared)
{
    MolecularCacheParams p = steadyParams(PlacementPolicy::Randy);
    p.clusters = 2;
    MolecularCache cache(p);
    for (u16 a = 0; a < 2; ++a)
        cache.registerApplication(Asid{a}, 0.1, ClusterId{a}, 0, 1);

    std::vector<MemAccess> trace;
    for (u32 i = 0; i < 4096; ++i) {
        for (u16 a = 0; a < 2; ++a) {
            const Addr window = shared ? 0 : static_cast<Addr>(a) << 34;
            trace.push_back({window + static_cast<Addr>(i) * 64, Asid{a},
                             i % 5 == 0 ? AccessType::Write
                                        : AccessType::Read});
        }
    }
    for (int pass = 0; pass < 3; ++pass)
        for (const MemAccess &m : trace)
            cache.access(m);
    ASSERT_EQ(cache.directory().coarse(), !shared);

    u64 misses = 0;
    const unsigned long long before = g_heapAllocs.load();
    for (int pass = 0; pass < 4; ++pass)
        for (const MemAccess &m : trace)
            misses += cache.access(m).hit ? 0 : 1;
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_EQ(misses, 4u * trace.size())
        << "measurement window must be all misses (steady-state fills)";
    EXPECT_EQ(after - before, 0u)
        << "steady-state misses must not allocate";
    EXPECT_EQ(cache.directory().coarse(), !shared);
}

TEST(HotpathAllocations, ZeroPerMissCoarseDirectory)
{
    expectZeroAllocTwoClusterMisses(/*shared=*/false);
}

TEST(HotpathAllocations, ZeroPerMissPerLineDirectory)
{
    expectZeroAllocTwoClusterMisses(/*shared=*/true);
}

/** The counter itself must observe allocations, or the zero above would
 * be vacuous. */
TEST(HotpathAllocations, CounterSeesAllocations)
{
    const unsigned long long before = g_heapAllocs.load();
    auto *v = new std::vector<int>(64, 1);
    EXPECT_EQ(v->size(), 64u);
    delete v;
    EXPECT_GT(g_heapAllocs.load(), before);
}

} // namespace
} // namespace molcache
