/**
 * @file
 * molcached_churn: mc::Service with 2 shards, the guardian on and
 * epochMillis = 0, driven by one thread replaying a pre-generated op
 * log through the public Service API only.
 *
 * The op log is built from the seed before anything is timed, in
 * served-access time rather than wall time:
 *  - ChurnProcess arrivals and departures (workload/churn.hpp);
 *  - 64-reference bursts, each to a random live tenant, 20 % writes;
 *  - runEpochNow() every kEpochAccesses accesses.
 * Nothing in the replay depends on the clock, so every simulated
 * statistic, and the ServiceSummary JSON itself, repeats exactly.
 *
 * It is the only workload exercising service locking, handles,
 * attach/detach/drain and the audited control-plane epochs.  The
 * guardian makes the batch lanes ineligible, so it is also the bypass
 * workload for the batch plane.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "contract/contract.hpp"
#include "exec/seed_stream.hpp"
#include "service/service.hpp"
#include "service/service_json.hpp"
#include "util/random.hpp"
#include "workload/churn.hpp"

using namespace molcache;

namespace perfbench {

namespace {

constexpr u32 kShards = 2;
/** Below the churn's mean live population (~12.5), so admission
 * rejects some arrivals and that path is exercised too. */
constexpr u32 kMaxTenants = 16;
constexpr u32 kInitialTenants = 8;
constexpr size_t kBurst = 64;
constexpr u64 kEpochAccesses = 32'768;
constexpr u64 kWarmAccesses = 1'000'000;
constexpr u64 kMeasuredAccesses = 6'000'000;

/** The drill's default population (12.5 tenants live on average),
 * turned over five times faster.  With ~1750 tenants per pass instead
 * of ~200, the simulated miss rate varies by about 2 % between seeds
 * instead of about 30 %. */
ChurnParams
churnParams()
{
    ChurnParams params;
    params.meanInterarrival = 4'000;
    params.meanLifetime = 50'000;
    return params;
}

struct Op
{
    enum class Kind : u8 { Attach, Detach, Burst, Epoch };
    Kind kind = Kind::Epoch;
    /** Attach: admission must reject it (the cap is reached). */
    bool expectReject = false;
    /** Tenant ordinal (attach, detach, burst). */
    u32 tenant = 0;
    /** Burst: first reference in OpLog::refs. */
    u64 offset = 0;
};

struct OpLog
{
    std::vector<Op> ops;
    std::vector<mc::Service::TenantAccess> refs;
    std::vector<ChurnTenantProfile> profiles;
    /** ops[0, warmOps) are replayed during set-up; ops[warmOps - 1] is
     * an epoch, so the measured window starts on a fresh snapshot. */
    size_t warmOps = 0;
};

/** Build the op log (set-up, timed step by step into @p gen). */
OpLog
makeOpLog(u64 seed, u32 lineSize, Calibration &cal, TimeSum &gen)
{
    OpLog log;
    ChurnProcess churn(churnParams(), deriveJobSeed(seed, 0));
    const auto rng = makeRandomSource(RngKind::Pcg32, deriveJobSeed(seed, 1));
    struct Live
    {
        u32 tenant;
        u64 deathAt;
    };
    std::vector<Live> live;
    const u64 total = kWarmAccesses + kMeasuredAccesses;
    log.refs.resize(total);

    const auto arrive = [&](u64 now) {
        const auto ordinal = static_cast<u32>(log.profiles.size());
        log.profiles.push_back(churn.makeProfile(ordinal, lineSize));
        Op op{Op::Kind::Attach, live.size() >= kMaxTenants, ordinal, 0};
        log.ops.push_back(op);
        if (!op.expectReject)
            live.push_back({ordinal, now + churn.nextLifetime()});
    };

    u64 now = 0;
    u64 nextEpoch = kEpochAccesses;
    timed(cal, gen, [&] {
        for (u32 i = 0; i < kInitialTenants; ++i)
            arrive(0);
    });
    u64 nextArrival = churn.nextArrivalGap();
    while (now < total) {
        timed(cal, gen, [&] {
            // Generate in steps of a few thousand references so set-up
            // is sliced like every other timed phase.
            for (int step = 0; step < 64 && now < total; ++step) {
                if (live.empty())
                    now = std::max(now, nextArrival);
                if (now >= nextArrival) {
                    arrive(now);
                    nextArrival = now + churn.nextArrivalGap();
                }
                for (auto it = live.begin(); it != live.end();) {
                    if (it->deathAt <= now) {
                        log.ops.push_back({Op::Kind::Detach, false,
                                           it->tenant, 0});
                        it = live.erase(it);
                    } else {
                        ++it;
                    }
                }
                if (live.empty())
                    continue;
                const Live &pick = live[rng->next64() % live.size()];
                const ChurnTenantProfile &profile =
                    log.profiles[pick.tenant];
                for (size_t i = 0; i < kBurst; ++i)
                    log.refs[now + i] = {churnAddress(profile, *rng),
                                         churnIsWrite(profile, *rng)};
                log.ops.push_back({Op::Kind::Burst, false, pick.tenant, now});
                now += kBurst;
                if (now >= nextEpoch) {
                    log.ops.push_back({Op::Kind::Epoch, false, 0, 0});
                    nextEpoch += kEpochAccesses;
                    if (log.warmOps == 0 && now >= kWarmAccesses)
                        log.warmOps = log.ops.size();
                }
            }
        });
    }
    return log;
}

struct PassResult
{
    PassTiming timing;
    SimOutputs out;
    /** @{ Control-plane calls of the measured window. */
    CallSeries attach;
    CallSeries detach;
    CallSeries epoch;
    u64 rejected = 0;
    /** @} */
    /** Traced: per-reference Service::access by AccessResult::level. */
    CallClass level[3];
    double shardSkew = 0.0;
};

std::string
summaryJsonOf(const mc::ServiceSummary &summary)
{
    std::ostringstream out;
    {
        JsonWriter json(out);
        mc::writeServiceSummaryDocument(json, summary);
    }
    return out.str();
}

u64
fnv1a(const std::string &text)
{
    u64 h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

mc::ServiceOptions
serviceOptions(u64 seed)
{
    mc::ServiceOptions options;
    options.withShards(kShards)
        .withEpochMillis(0)
        .withMaxTenants(kMaxTenants)
        .withGuardian(true);
    options.cache.seed = seed;
    return options;
}

PassResult
runPass(u64 seed, bool traced, Calibration &cal, PassChecker &checker)
{
    PassResult pass;
    PassTiming &time = pass.timing;
    const u64 violationsBefore = contract::counters().total();
    const mc::ServiceOptions options = serviceOptions(seed);

    // Set-up: op log, service construction, warm-up replay.
    const OpLog log = makeOpLog(seed, options.cache.lineSize, cal, time.gen);
    time.genRefs = log.refs.size();
    std::unique_ptr<mc::Service> service;
    timed(cal, time.build,
          [&] { service = std::make_unique<mc::Service>(options); });

    std::vector<mc::TenantHandle> handles(log.profiles.size());
    std::map<std::string, mc::ServiceTenantSummary> lastRow;
    std::array<AccessResult, kBurst> results;
    u64 attachMismatches = 0;
    u64 hitsSeen = 0;
    u64 timerCalls = 0;

    const auto replay = [&](size_t from, size_t to, bool measuring) {
        for (size_t i = from; i < to; ++i) {
            const Op &op = log.ops[i];
            mc::TenantHandle &handle = handles[op.tenant];
            if (op.kind == Op::Kind::Burst && traced && measuring) {
                for (size_t r = 0; r < kBurst; ++r) {
                    const auto &ref = log.refs[op.offset + r];
                    const std::int64_t t0 = nowNs();
                    const AccessResult res =
                        service->access(handle, ref.addr, ref.write);
                    const std::int64_t t1 = nowNs();
                    const auto raw = static_cast<double>(t1 - t0);
                    const size_t level = std::min<size_t>(res.level, 2);
                    pass.level[level].add(raw, cal.factor());
                    time.measured.add(raw, cal.factor());
                    hitsSeen += res.hit ? 1 : 0;
                    cal.maybeSlice(t1);
                }
                timerCalls += kBurst;
                continue;
            }
            const std::int64_t t0 = nowNs();
            switch (op.kind) {
            case Op::Kind::Attach: {
                mc::TenantSpec spec;
                spec.name = std::to_string(op.tenant);
                spec.name.insert(0, 1, 't');
                spec.missRateGoal = log.profiles[op.tenant].missRateGoal;
                handle = service->attach(spec);
                break;
            }
            case Op::Kind::Detach:
                service->detach(handle);
                break;
            case Op::Kind::Burst:
                service->accessBatch(handle, {&log.refs[op.offset], kBurst},
                                     {results.data(), kBurst});
                break;
            case Op::Kind::Epoch:
                service->runEpochNow();
                break;
            }
            const std::int64_t t1 = nowNs();
            const auto raw = static_cast<double>(t1 - t0);
            const double f = cal.factor();
            if (!measuring) {
                time.build.add(raw, f);
            } else {
                ++timerCalls;
                time.measured.add(raw, f);
                // Indexed by Op::Kind.
                CallSeries *series[] = {&pass.attach, &pass.detach,
                                        &time.calls, &pass.epoch};
                series[static_cast<size_t>(op.kind)]->add(raw, f);
            }
            // Harness bookkeeping, outside the timed interval.
            switch (op.kind) {
            case Op::Kind::Attach:
                attachMismatches += handle.valid() == op.expectReject;
                pass.rejected += measuring && op.expectReject;
                break;
            case Op::Kind::Detach:
                // The replay's last reference drops here; the next
                // epoch drains the tenant.
                handle.reset();
                break;
            case Op::Kind::Burst:
                for (const AccessResult &res : results)
                    hitsSeen += res.hit ? 1 : 0;
                break;
            case Op::Kind::Epoch:
                for (const auto &row : service->summary().tenants)
                    lastRow[row.name] = row;
                break;
            }
            cal.maybeSlice(t1);
        }
    };

    replay(0, log.warmOps, false);
    const mc::ServiceSummary atWarm = service->summary();

    const double overheadNs = traced ? timerOverheadNs() : 0.0;
    cal.slice();
    const std::int64_t sliceBefore = cal.sliceNs();
    const std::int64_t windowStart = nowNs();
    replay(log.warmOps, log.ops.size(), true);
    time.windowRawNs = static_cast<double>(nowNs() - windowStart) -
                       static_cast<double>(cal.sliceNs() - sliceBefore);
    time.coverage = (time.measured.rawNs +
                     overheadNs * static_cast<double>(timerCalls)) /
                    time.windowRawNs;

    // Shutdown (untimed): snapshot with the population still live, then
    // detach everyone and run epochs until every departure has drained.
    service->runEpochNow();
    const mc::ServiceSummary live = service->summary();
    for (const auto &row : live.tenants)
        lastRow[row.name] = row;
    for (mc::TenantHandle &handle : handles) {
        if (handle.valid())
            service->detach(handle);
        handle.reset();
    }
    mc::ServiceSummary final;
    for (int i = 0; i < 8; ++i) {
        service->runEpochNow();
        final = service->summary();
        if (final.tenantsDrained == final.tenantsDetached)
            break;
    }

    time.measuredRefs = final.accesses - atWarm.accesses;
    pass.out.missRate = ratio(static_cast<double>(final.misses - atWarm.misses),
                              static_cast<double>(time.measuredRefs));
    double deviation = 0.0;
    u64 rows = 0;
    for (const auto &[name, row] : lastRow) {
        if (row.accesses == 0)
            continue;
        deviation += std::fabs(row.missRate - row.goal);
        ++rows;
    }
    pass.out.avgDeviation = ratio(deviation, static_cast<double>(rows));
    u64 most = 0;
    u64 least = ~u64{0};
    for (const auto &shard : final.shards) {
        most = std::max(most, shard.accesses);
        least = std::min(least, shard.accesses);
    }
    pass.shardSkew = ratio(static_cast<double>(most),
                           static_cast<double>(least));

    std::string &fp = pass.out.fingerprint;
    char line[256];
    const auto put = [&](const char *fmt, auto... args) {
        std::snprintf(line, sizeof line, fmt, args...);
        fp += line;
    };
    put("workload molcached_churn seed %llu accesses %llu\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(final.accesses));
    put("global hits %llu misses %llu writebacks %llu epochs %llu\n",
        static_cast<unsigned long long>(final.hits),
        static_cast<unsigned long long>(final.misses),
        static_cast<unsigned long long>(final.writebacks),
        static_cast<unsigned long long>(final.epoch));
    put("tenants attached %llu detached %llu drained %llu\n",
        static_cast<unsigned long long>(final.tenantsAttached),
        static_cast<unsigned long long>(final.tenantsDetached),
        static_cast<unsigned long long>(final.tenantsDrained));
    for (const auto &shard : final.shards)
        put("shard %u accesses %llu hits %llu misses %llu writebacks %llu "
            "resize_cycles %llu\n",
            shard.shard, static_cast<unsigned long long>(shard.accesses),
            static_cast<unsigned long long>(shard.hits),
            static_cast<unsigned long long>(shard.misses),
            static_cast<unsigned long long>(shard.writebacks),
            static_cast<unsigned long long>(shard.resizeCycles));
    for (const auto &[name, row] : lastRow)
        put("tenant %s shard %u asid %u generation %u goal %.17g "
            "accesses %llu hits %llu misses %llu\n",
            name.c_str(), row.shard, static_cast<unsigned>(row.asid),
            row.generation, row.goal,
            static_cast<unsigned long long>(row.accesses),
            static_cast<unsigned long long>(row.hits),
            static_cast<unsigned long long>(row.misses));
    put("avg_deviation %.17g\n", pass.out.avgDeviation);
    put("summary_json_fnv1a %016llx\n",
        static_cast<unsigned long long>(
            fnv1a(summaryJsonOf(live) + summaryJsonOf(final))));

    checker.check(attachMismatches == 0,
                  "attach admission differs from the op log's expectation");
    checker.check(final.accesses == log.refs.size(),
                  "served accesses != references in the op log");
    checker.check(final.hits + final.misses == final.accesses,
                  "hits + misses != accesses");
    checker.check(final.hits == hitsSeen, "per-call hit results != hits");
    checker.check(final.invariantViolations == 0,
                  "invariant audit reported violations");
    checker.check(final.tenantsDrained == final.tenantsDetached &&
                      final.tenantsLive == 0,
                  "departed tenant left undrained");
    checker.check(contract::counters().total() == violationsBefore,
                  "contract violation");
    return pass;
}

} // namespace

Outcome
runMolcachedChurn(const RunConfig &config)
{
    Calibration cal;
    PassChecker checker(config);
    std::vector<PassResult> plain;
    std::vector<PassResult> traced;
    runPasses(
        config, checker,
        [&](u64 seed, bool trace) {
            return runPass(seed, trace, cal, checker);
        },
        plain, traced);

    Outcome outcome;
    if (!config.trace) {
        reportEndToEnd(timings(plain), plain.front().out, "accessBatch(64)",
                       outcome);
    } else {
        CallClass level[3];
        for (const PassResult &t : traced) {
            for (int l = 0; l < 3; ++l) {
                level[l].count += t.level[l].count;
                level[l].time.calNs += t.level[l].time.calNs;
            }
        }
        std::vector<double> attachNs;
        std::vector<double> detachNs;
        std::vector<double> epochNs;
        std::vector<double> epochShare;
        for (const PassResult &p : plain) {
            attachNs.insert(attachNs.end(), p.attach.calNs.begin(),
                            p.attach.calNs.end());
            detachNs.insert(detachNs.end(), p.detach.calNs.begin(),
                            p.detach.calNs.end());
            epochNs.insert(epochNs.end(), p.epoch.calNs.begin(),
                           p.epoch.calNs.end());
            epochShare.push_back(p.epoch.total.calNs /
                                 p.timing.measured.calNs);
        }
        const PassResult &first = plain.front();
        outcome.metrics = {
            {"service.access.home_hit.ns_mean", level[0].meanNs()},
            {"service.access.ulmo_hit.ns_mean", level[1].meanNs()},
            {"service.access.miss.ns_mean", level[2].meanNs()},
            {"service.epoch.count",
             static_cast<double>(first.epoch.calNs.size())},
            {"service.epoch.us_p50", median(epochNs) * 1e-3},
            {"service.epoch.us_max", quantile(epochNs, 1.0) * 1e-3},
            {"service.epoch.time_share", median(epochShare)},
            {"service.attach.count",
             static_cast<double>(first.attach.calNs.size())},
            {"service.attach.us_p50", median(attachNs) * 1e-3},
            {"service.attach.rejected", static_cast<double>(first.rejected)},
            {"service.detach.us_p50", median(detachNs) * 1e-3},
            {"service.shard_skew", first.shardSkew},
        };
        reportCommonLayers(timings(plain), timings(traced), outcome);
    }
    outcome.attempted = checker.attempted();
    outcome.failed = checker.failed();
    return outcome;
}

} // namespace perfbench
