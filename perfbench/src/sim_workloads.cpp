/**
 * @file
 * The two simulator workloads: the paper's Figure 5 and Table 2
 * experiments, driven through MolecularCache's public calls.
 *
 * fig5_spec4      art/ammp/parser/mcf, 2 MiB, 1 cluster x 4 tiles,
 *                 Randy, 10 % goal each.  The only workload where the
 *                 batch plane and way-memoization engage (guardian off),
 *                 and its one-cluster directory can never invalidate.
 * table2_mixed12  the 12-application mix, 6 MiB, 3 clusters x 4 tiles,
 *                 Randy, 25 % goal.  Misses and the multi-cluster
 *                 directory dominate.
 *
 * Untraced passes feed the measured references through accessBatch in
 * 256-reference calls.  Traced passes call access() once per reference
 * and classify each call by AccessResult::level and by whether
 * resizeCycles() advanced during it.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "bench.hpp"
#include "contract/contract.hpp"
#include "core/molecular_cache.hpp"
#include "fault/invariant_checker.hpp"
#include "sim/experiment.hpp"
#include "sim/qos.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

using namespace molcache;

namespace perfbench {

namespace {

struct SimShape
{
    const char *name;
    std::vector<std::string> apps;
    double goal;
    u64 warmRefs;
    u64 measuredRefs;
    MolecularCacheParams (*params)(u64 seed);
};

/** References per accessBatch call. */
constexpr size_t kCall = 256;
/** References per generation step (set-up is timed step by step). */
constexpr size_t kGenChunk = 1 << 16;

struct PassResult
{
    PassTiming timing;
    SimOutputs out;

    /** @{ Traced passes only: access() calls by outcome. */
    CallClass homeHit;
    CallClass ulmoHit;
    CallClass miss;
    CallClass resize;
    double homeHitP50Ns = 0.0;
    /** @} */
    /** @{ Model counters over the measured window. */
    u64 memoHits = 0;
    u64 memoMispredicts = 0;
    u64 directoryFills = 0;
    u64 directoryEntries = 0;
    double probesPerAccess = 0.0;
    /** @} */
};

std::string
fingerprintOf(const SimShape &shape, u64 seed, const MolecularCache &cache,
              const QosSummary &qos, u64 resizes, u64 fills)
{
    std::string out;
    char line[256];
    const auto put = [&](const char *fmt, auto... args) {
        std::snprintf(line, sizeof line, fmt, args...);
        out += line;
    };
    const auto counters = [&](const char *tag, const AccessCounters &c) {
        put("%s accesses %llu hits %llu misses %llu writes %llu "
            "writebacks %llu\n",
            tag, static_cast<unsigned long long>(c.accesses),
            static_cast<unsigned long long>(c.hits),
            static_cast<unsigned long long>(c.misses),
            static_cast<unsigned long long>(c.writes),
            static_cast<unsigned long long>(c.writebacks));
    };
    put("workload %s seed %llu measured %llu\n", shape.name,
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(shape.measuredRefs));
    counters("global", cache.stats().global());
    for (const auto &[asid, c] : cache.stats().perAsid()) {
        const std::string tag = "app" + std::to_string(asid.value()) + " " +
                                shape.apps.at(asid.value());
        counters(tag.c_str(), c);
    }
    put("avg_deviation %.17g\n", qos.averageDeviation);
    put("way_memo hits %llu mispredicts %llu invalidations %llu\n",
        static_cast<unsigned long long>(cache.wayMemoHits()),
        static_cast<unsigned long long>(cache.wayMemoMispredicts()),
        static_cast<unsigned long long>(cache.wayMemoInvalidations()));
    put("resize_cycles %llu directory_fills %llu\n",
        static_cast<unsigned long long>(resizes),
        static_cast<unsigned long long>(fills));
    put("probes_per_access %.17g energy_nj %.17g\n",
        cache.averageProbesPerAccess(), cache.totalEnergyNj());
    return out;
}

PassResult
runPass(const SimShape &shape, u64 seed, bool traced, Calibration &cal,
        PassChecker &checker)
{
    PassResult pass;
    PassTiming &time = pass.timing;
    const u64 violationsBefore = contract::counters().total();
    const u64 total = shape.warmRefs + shape.measuredRefs;

    // Set-up 1: input generation (workload + mem layers).
    std::vector<MemAccess> refs(total);
    std::unique_ptr<AccessSource> source;
    timed(cal, time.gen, [&] {
        source = makeMultiProgramSource(shape.apps, total,
                                        MixPolicy::RoundRobin, seed);
    });
    while (time.genRefs < total) {
        size_t n = 0;
        timed(cal, time.gen, [&] {
            n = source->nextBatch(refs.data() + time.genRefs,
                                  std::min<u64>(kGenChunk,
                                                total - time.genRefs));
        });
        if (n == 0)
            break;
        time.genRefs += n;
    }
    checker.check(time.genRefs == total, "trace generation ended early");

    // Set-up 2: model construction and warm-up; statistics restart after.
    std::unique_ptr<MolecularCache> cache;
    timed(cal, time.build, [&] {
        cache = std::make_unique<MolecularCache>(shape.params(seed));
        registerApplications(*cache, static_cast<u32>(shape.apps.size()),
                             shape.goal);
    });
    std::vector<AccessResult> results(kCall);
    for (u64 off = 0; off < shape.warmRefs; off += kCall) {
        const size_t n = std::min<u64>(kCall, shape.warmRefs - off);
        timed(cal, time.build, [&] {
            cache->accessBatch({refs.data() + off, n}, {results.data(), n});
        });
    }
    cache->resetStats();
    const u64 resizesBefore = cache->resizeCycles();
    const u64 fillsBefore = cache->directory().stats().fills;

    // Measured window.
    time.measuredRefs = shape.measuredRefs;
    u64 hitsSeen = 0;
    const double overheadNs = traced ? timerOverheadNs() : 0.0;
    cal.slice();
    const std::int64_t sliceBefore = cal.sliceNs();
    const std::int64_t windowStart = nowNs();
    if (!traced) {
        for (u64 off = shape.warmRefs; off < total; off += kCall) {
            const size_t n = std::min<u64>(kCall, total - off);
            const std::int64_t t0 = nowNs();
            cache->accessBatch({refs.data() + off, n}, {results.data(), n});
            const std::int64_t t1 = nowNs();
            time.calls.add(static_cast<double>(t1 - t0), cal.factor());
            for (size_t i = 0; i < n; ++i)
                hitsSeen += results[i].hit ? 1 : 0;
            cal.maybeSlice(t1);
        }
        time.measured = time.calls.total;
    } else {
        u64 resizes = cache->resizeCycles();
        std::vector<double> homeHitNs;
        for (u64 i = shape.warmRefs; i < total; ++i) {
            const std::int64_t t0 = nowNs();
            const AccessResult r = cache->access(refs[i]);
            const std::int64_t t1 = nowNs();
            const double raw = static_cast<double>(t1 - t0);
            const double f = cal.factor();
            time.measured.add(raw, f);
            const u64 nowResizes = cache->resizeCycles();
            if (nowResizes != resizes) {
                resizes = nowResizes;
                pass.resize.add(raw, f);
            } else if (r.level == 0) {
                pass.homeHit.add(raw, f);
                homeHitNs.push_back(raw * f);
            } else if (r.level == 1) {
                pass.ulmoHit.add(raw, f);
            } else {
                pass.miss.add(raw, f);
            }
            hitsSeen += r.hit ? 1 : 0;
            cal.maybeSlice(t1);
        }
        pass.homeHitP50Ns = median(homeHitNs);
    }
    time.windowRawNs = static_cast<double>(nowNs() - windowStart) -
                       static_cast<double>(cal.sliceNs() - sliceBefore);
    time.coverage = (time.measured.rawNs +
                     overheadNs * static_cast<double>(shape.measuredRefs)) /
                    time.windowRawNs;

    const CacheStats &stats = cache->stats();
    const QosSummary qos = summarize(
        *cache,
        GoalSet::uniform(shape.goal, static_cast<u32>(shape.apps.size())),
        labelMap(shape.apps));
    pass.out.missRate = stats.global().missRate();
    pass.out.avgDeviation = qos.averageDeviation;
    const u64 resizes = cache->resizeCycles() - resizesBefore;
    const u64 fills = cache->directory().stats().fills - fillsBefore;
    pass.out.fingerprint =
        fingerprintOf(shape, seed, *cache, qos, resizes, fills);

    // Accounting identities and the structural audit.
    const AccessCounters &g = stats.global();
    checker.check(g.accesses == shape.measuredRefs,
                  "measured accesses != references fed");
    checker.check(g.hits + g.misses == g.accesses,
                  "hits + misses != accesses");
    checker.check(g.hits == hitsSeen, "per-call hit results != hit counter");
    u64 perApp = 0;
    for (const auto &entry : stats.perAsid())
        perApp += entry.second.accesses;
    checker.check(perApp == g.accesses, "per-app accesses != global");
    checker.check(InvariantChecker::check(*cache).ok(),
                  "invariant audit failed");
    checker.check(contract::counters().total() == violationsBefore,
                  "contract violation");

    pass.memoHits = cache->wayMemoHits();
    pass.memoMispredicts = cache->wayMemoMispredicts();
    pass.directoryFills = fills;
    pass.directoryEntries = cache->directory().entries();
    pass.probesPerAccess = cache->averageProbesPerAccess();
    return pass;
}

Outcome
runSim(const SimShape &shape, const RunConfig &config)
{
    Calibration cal;
    PassChecker checker(config);
    std::vector<PassResult> plain;
    std::vector<PassResult> traced;
    runPasses(
        config, checker,
        [&](u64 seed, bool trace) {
            return runPass(shape, seed, trace, cal, checker);
        },
        plain, traced);

    Outcome outcome;
    if (!config.trace) {
        reportEndToEnd(timings(plain), plain.front().out,
                       "accessBatch(256)", outcome);
    } else {
        CallClass home, ulmo, miss, resize;
        std::vector<double> homeP50;
        for (const PassResult &t : traced) {
            for (auto [sum, part] :
                 {std::pair{&home, &t.homeHit}, std::pair{&ulmo, &t.ulmoHit},
                  std::pair{&miss, &t.miss}, std::pair{&resize, &t.resize}}) {
                sum->count += part->count;
                sum->time.calNs += part->time.calNs;
            }
            homeP50.push_back(t.homeHitP50Ns);
        }
        const PassResult &t = traced.front();
        const auto homeHits = static_cast<double>(t.homeHit.count);
        outcome.metrics = {
            {"core.home_hit.count", homeHits},
            {"core.home_hit.ns_mean", home.meanNs()},
            {"core.home_hit.ns_p50", median(homeP50)},
            {"core.way_memo.coverage",
             ratio(static_cast<double>(t.memoHits), homeHits)},
            {"core.way_memo.hit_ratio",
             ratio(static_cast<double>(t.memoHits),
                   static_cast<double>(t.memoHits + t.memoMispredicts))},
            {"core.ulmo_hit.count", static_cast<double>(t.ulmoHit.count)},
            {"core.ulmo_hit.ns_mean", ulmo.meanNs()},
            {"core.miss.count", static_cast<double>(t.miss.count)},
            {"core.miss.ns_mean", miss.meanNs()},
            {"core.directory.fills", static_cast<double>(t.directoryFills)},
            {"core.directory.entries",
             static_cast<double>(t.directoryEntries)},
            {"core.resize.count", static_cast<double>(t.resize.count)},
            {"core.resize.ns_mean", resize.meanNs()},
            {"core.probes_per_access", t.probesPerAccess},
        };
        reportCommonLayers(timings(plain), timings(traced), outcome);
    }
    outcome.attempted = checker.attempted();
    outcome.failed = checker.failed();
    return outcome;
}

MolecularCacheParams
fig5Params(u64 seed)
{
    return fig5MolecularParams(2_MiB, PlacementPolicy::Randy, seed);
}

MolecularCacheParams
table2Params(u64 seed)
{
    return table2MolecularParams(PlacementPolicy::Randy, seed);
}

} // namespace

Outcome
runFig5Spec4(const RunConfig &config)
{
    const SimShape shape{"fig5_spec4", spec4Names(), 0.10,
                         1'000'000,    2'000'000,    &fig5Params};
    return runSim(shape, config);
}

Outcome
runTable2Mixed12(const RunConfig &config)
{
    const SimShape shape{"table2_mixed12", mixed12Names(), 0.25,
                         1'000'000,        2'000'000,       &table2Params};
    return runSim(shape, config);
}

} // namespace perfbench
