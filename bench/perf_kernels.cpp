/**
 * @file
 * google-benchmark micro-kernels for the simulator itself: access-path
 * throughput of the traditional and molecular models, trace generation,
 * and the power-model organization search.  These guard against
 * performance regressions in the hot loops the reproduction experiments
 * depend on.
 *
 * The BM_Hotpath* family is the access-path gate described in
 * docs/perf.md: it measures steady-state accesses/sec for every
 * placement policy and is compared against the committed baseline in
 * BENCH_hotpath.json (refresh with
 * `perf_kernels --benchmark_filter=BM_Hotpath --benchmark_format=json`).
 */

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "cache/set_assoc.hpp"
#include "core/molecular_cache.hpp"
#include "power/cacti.hpp"
#include "sim/experiment.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace {

/**
 * A view of the first @p n accesses of a lazily-grown shared trace.
 * Returning a span keeps the (one-time) generation cost out of every
 * kernel's measured loop and avoids re-copying 100k MemAccess records
 * per benchmark registration.
 */
std::span<const MemAccess>
sampleTrace(u64 n)
{
    static std::vector<MemAccess> trace;
    if (trace.size() < n) {
        auto src = makeMultiProgramSource(spec4Names(), n,
                                          MixPolicy::RoundRobin, 7);
        trace.clear();
        trace.reserve(n);
        while (auto a = src->next())
            trace.push_back(*a);
    }
    return {trace.data(), n};
}

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &profile = profileByName("parser");
    for (auto _ : state) {
        TraceGenerator gen(profile, Asid{0}, static_cast<u64>(state.range(0)), 3);
        u64 sum = 0;
        while (auto a = gen.next())
            sum += a->addr;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10000);

void
BM_SetAssocAccess(benchmark::State &state)
{
    SetAssocCache cache(
        traditionalParams(1_MiB, static_cast<u32>(state.range(0))));
    const auto trace = sampleTrace(100000);
    size_t i = 0;
    for (auto _ : state) {
        cache.access(trace[i]);
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocAccess)->Arg(1)->Arg(4)->Arg(8);

void
BM_MolecularAccess(benchmark::State &state)
{
    MolecularCacheParams p = fig5MolecularParams(
        2_MiB, state.range(0) ? PlacementPolicy::Randy
                              : PlacementPolicy::Random);
    MolecularCache cache(p);
    for (u32 a = 0; a < 4; ++a)
        cache.registerApplication(Asid{static_cast<u16>(a)}, 0.1, ClusterId{0}, a, 1);
    const auto trace = sampleTrace(100000);
    size_t i = 0;
    for (auto _ : state) {
        cache.access(trace[i]);
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MolecularAccess)->Arg(0)->Arg(1);

/* ------------------------------------------------------------------ */
/* Access-path hot-path gate (docs/perf.md)                            */

/** Hot-path kernel variants, one per placement policy.  The values are
 * the kernels' names in BENCH_hotpath.json (2 was a retired ablation). */
enum HotpathVariant : int
{
    kHotRandom = 0,
    kHotRandy = 1,
    kHotLruDirect = 3,
};

MolecularCacheParams
hotpathParams(int variant)
{
    PlacementPolicy policy = PlacementPolicy::Random;
    switch (variant) {
      case kHotRandom:
        policy = PlacementPolicy::Random;
        break;
      case kHotRandy:
        policy = PlacementPolicy::Randy;
        break;
      case kHotLruDirect:
        policy = PlacementPolicy::LruDirect;
        break;
    }
    return fig5MolecularParams(2_MiB, policy);
}

/**
 * Steady-state molecular access throughput.  The cache is warmed with
 * one full pass over the trace before timing starts so the measured
 * loop reflects the steady-state lookup path (the regime every sweep
 * and figure reproduction spends its time in), not cold fills.
 */
void
BM_HotpathMolecular(benchmark::State &state)
{
    MolecularCache cache(hotpathParams(static_cast<int>(state.range(0))));
    for (u32 a = 0; a < 4; ++a)
        cache.registerApplication(Asid{static_cast<u16>(a)}, 0.1,
                                  ClusterId{0}, a, 1);
    const auto trace = sampleTrace(100000);
    for (const MemAccess &a : trace)
        cache.access(a); // warmup pass: populate regions + fills
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(trace[i]).hit);
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathMolecular)
    ->Arg(kHotRandom)
    ->Arg(kHotRandy)
    ->Arg(kHotLruDirect);

/** Traditional set-associative reference point for the same trace. */
void
BM_HotpathTraditional(benchmark::State &state)
{
    SetAssocCache cache(
        traditionalParams(2_MiB, static_cast<u32>(state.range(0))));
    const auto trace = sampleTrace(100000);
    for (const MemAccess &a : trace)
        cache.access(a);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(trace[i]).hit);
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotpathTraditional)->Arg(8);

void
BM_CactiEvaluate(benchmark::State &state)
{
    const CactiModel model;
    CacheGeometry g;
    g.sizeBytes = Bytes{static_cast<u64>(state.range(0)) << 20};
    g.associativity = 4;
    g.ports = 4;
    for (auto _ : state) {
        auto pt = model.evaluate(g);
        benchmark::DoNotOptimize(pt.readEnergyNj);
    }
}
BENCHMARK(BM_CactiEvaluate)->Arg(1)->Arg(8);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(static_cast<u32>(state.range(0)), 0.8);
    Pcg32 rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1024)->Arg(65536);

} // namespace

/**
 * Hand-rolled main (instead of benchmark::benchmark_main) so every JSON
 * capture carries the build type of *this* binary in its context block.
 * The stock "library_build_type" key describes how the google-benchmark
 * library was compiled — on distro packages that can say "debug" even
 * for a -O3 molcache build — so the perf-baseline gate keys off
 * "molcache_build_type" and refuses captures that were not Release.
 */
int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("molcache_build_type", "release");
#else
    benchmark::AddCustomContext("molcache_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
