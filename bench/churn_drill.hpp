/**
 * @file
 * The shared driver of the molcached drills (bench/service_churn and
 * bench/chaos_drill, docs/molcached.md).
 *
 * N worker threads hammer an mc::Service while a seeded arrival/
 * departure process (workload/churn.hpp) attaches tenants with
 * heterogeneous footprints and goals and detaches them after an
 * exponential lifetime.  Workers pick a random live tenant every few
 * bursts, so handle refcounts are genuinely contended and drains
 * genuinely wait for in-flight references.
 *
 * The drill has no driver thread and reads no clock.  Its clock is the
 * number of references the workers have issued, counted in burst slots
 * of kBurstRefs whether a slot was served, shed, or idle for want of a
 * tenant, so a stalled shard or an empty board cannot stop it.  The
 * worker whose slot crosses a kStepRefs boundary runs the churn step
 * inline, under the step mutex: due arrivals and departures, then
 * runEpochNow() every kEpochRefs references, as Algorithm 1 is paced
 * by addresses serviced.  With one worker a run is therefore a function
 * of its seed and repeats byte for byte; with N, only the interleaving
 * of their bursts varies.
 *
 * Service calls are never made under the board lock: workers copy a
 * (handle, profile) pair out of it, and the step detaches outside it.
 */

#ifndef MOLCACHE_BENCH_CHURN_DRILL_HPP
#define MOLCACHE_BENCH_CHURN_DRILL_HPP

#include <atomic>
#include <fstream>
#include <string>
#include <utility>
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

namespace molcache::bench {

/** References per burst slot: a worker's unit of work and of time. */
inline constexpr u64 kBurstRefs = 64;
/** References between churn steps (arrivals and departures). */
inline constexpr u64 kStepRefs = 1024;
/** References between control-plane epochs. */
inline constexpr u64 kEpochRefs = 4096;
/** Epochs the traffic keeps flowing past the reference target while a
 * drill waits for the service to settle. */
inline constexpr u64 kSettleEpochs = 256;

struct DrillSpec
{
    u32 workers = 8;
    /** References to issue before the drill may stop. */
    u64 totalRefs = 0;
    u64 seed = 1;
    u32 initialTenants = 8;
    ChurnParams churn;
};

/** The options both drills take. */
inline void
addDrillOptions(CliParser &cli, u64 defaultRefs, u32 defaultShards)
{
    cli.addOption("workers", "8", "access worker threads");
    cli.addOption("refs", std::to_string(defaultRefs),
                  "references to issue");
    cli.addOption("seed", "1", "base RNG seed");
    cli.addOption("shards", std::to_string(defaultShards),
                  "cache shards (tile clusters)");
    cli.addOption("json", "",
                  "write the service_summary telemetry document here");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
}

/** The spec the common options give; fatal on zero workers. */
inline DrillSpec
drillSpec(const CliParser &cli)
{
    DrillSpec spec;
    spec.workers = static_cast<u32>(cli.integer("workers"));
    spec.totalRefs = static_cast<u64>(cli.integer("refs"));
    spec.seed = static_cast<u64>(cli.integer("seed"));
    if (spec.workers == 0)
        fatal("--workers must be >= 1");
    return spec;
}

class ChurnDrill
{
  public:
    ChurnDrill(mc::Service &service, const DrillSpec &spec)
        : service_(service), spec_(spec),
          churn_(spec.churn, deriveJobSeed(spec.seed, 0))
    {
    }

    /**
     * Attach the initial tenants and run the workers until the
     * reference target is met and @p settled(service) holds, or
     * kSettleEpochs epochs past the target.  @p burst(handle, profile,
     * rng, index) issues one slot of kBurstRefs references and returns
     * 0, or the retry-after in epochs when the service shed it; the
     * worker then leaves that tenant alone until the epoch count has
     * moved that far.
     */
    template <class Burst, class Settled>
    void
    run(Burst burst, Settled settled)
    {
        {
            mc::MutexLock lock(stepMutex_);
            for (; ordinal_ < spec_.initialTenants; ++ordinal_)
                attachOne(0);
            nextArrival_ = churn_.nextArrivalGap();
        }
        parallelFor(spec_.workers, spec_.workers, [&](u64 job) {
            work(deriveJobSeed(spec_.seed, 1000 + job), burst, settled);
        });
    }

    /**
     * Detach the tenants still live, run epochs until every departed
     * tenant has drained (all handles are dead, so one or two do), and
     * return the summary with every thread's contract violations.
     */
    mc::ServiceSummary
    finish()
    {
        std::vector<mc::TenantHandle> rest;
        {
            mc::MutexLock lock(boardMutex_);
            for (LiveTenant &tenant : live_)
                rest.push_back(std::move(tenant.handle));
            live_.clear();
        }
        for (const mc::TenantHandle &handle : rest)
            service_.detach(handle);
        rest.clear();
        mc::ServiceSummary summary = service_.summary();
        for (u32 i = 0; i < 8; ++i) {
            service_.runEpochNow();
            summary = service_.summary();
            if (summary.tenantsDrained == summary.tenantsDetached)
                break;
        }
        summary.contractViolations +=
            contractViolations_.load(std::memory_order_acquire) +
            contract::counters().total();
        return summary;
    }

    /** Whether settled() held when the drill stopped. */
    bool
    settled() const
    {
        return settled_.load(std::memory_order_acquire);
    }

    /** Bursts the service shed (see run()). */
    u64
    shedBursts() const
    {
        return shedBursts_.load(std::memory_order_acquire);
    }

  private:
    struct LiveTenant
    {
        mc::TenantHandle handle;
        ChurnTenantProfile profile;
        u64 ordinal = 0;
        u64 deathAt = 0;
    };

    template <class Burst, class Settled>
    void
    work(u64 seed, Burst &burst, Settled &settled)
    {
        const auto rng = makeRandomSource(RngKind::Pcg32, seed);
        const u64 before = contract::counters().total();
        mc::TenantHandle handle;
        ChurnTenantProfile profile;
        u64 ordinal = 0;
        u64 deferred = ~u64{0}; // ordinal of the tenant backed off from
        u64 deferredUntil = 0;
        u64 sinceRefresh = ~u64{0}; // force an initial pick
        for (u64 slot = 0; !stop_.load(std::memory_order_acquire); ++slot) {
            // Re-pick a tenant every few bursts; between picks the held
            // handle keeps the tenant drain-safe even after it departs.
            if (sinceRefresh > 8) {
                sinceRefresh = 0;
                mc::MutexLock lock(boardMutex_);
                if (live_.empty()) {
                    handle.reset();
                } else {
                    const LiveTenant &pick =
                        live_[rng->next64() % live_.size()];
                    handle = pick.handle;
                    profile = pick.profile;
                    ordinal = pick.ordinal;
                }
            }
            ++sinceRefresh;
            if (!handle || (ordinal == deferred &&
                            service_.epochsCompleted() < deferredUntil)) {
                sinceRefresh = ~u64{0}; // idle slot; pick again
            } else if (const u64 retry = burst(handle, profile, *rng, slot);
                       retry != 0) {
                shedBursts_.fetch_add(1, std::memory_order_relaxed);
                deferred = ordinal;
                deferredUntil = service_.epochsCompleted() + retry;
                sinceRefresh = ~u64{0};
            }
            const u64 issued =
                refs_.fetch_add(kBurstRefs, std::memory_order_relaxed);
            if (issued / kStepRefs != (issued + kBurstRefs) / kStepRefs)
                step(settled);
        }
        contractViolations_.fetch_add(contract::counters().total() - before,
                                      std::memory_order_relaxed);
    }

    /** One churn step at the current clock (see the file comment). */
    template <class Settled>
    void
    step(Settled &settled)
    {
        mc::MutexLock lock(stepMutex_);
        if (stop_.load(std::memory_order_relaxed))
            return;
        const u64 now = refs_.load(std::memory_order_relaxed);
        while (now >= nextArrival_) {
            attachOne(now);
            ++ordinal_;
            nextArrival_ += churn_.nextArrivalGap();
        }
        std::vector<mc::TenantHandle> dying;
        {
            mc::MutexLock board(boardMutex_);
            for (auto it = live_.begin(); it != live_.end();) {
                if (it->deathAt <= now) {
                    dying.push_back(std::move(it->handle));
                    it = live_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (const mc::TenantHandle &handle : dying)
            service_.detach(handle);
        dying.clear(); // drop them before the epochs, which drain
        for (; now >= nextEpoch_; nextEpoch_ += kEpochRefs)
            service_.runEpochNow();
        if (now < spec_.totalRefs)
            return;
        if (settleBound_ == 0)
            settleBound_ = service_.epochsCompleted() + kSettleEpochs;
        const bool quiet = settled(service_);
        settled_.store(quiet, std::memory_order_release);
        if (quiet || service_.epochsCompleted() >= settleBound_)
            stop_.store(true, std::memory_order_release);
    }

    /** Admit tenant ordinal_ at clock @p now; a rejection (admission
     * cap, overload protection, a quarantined target) turns it away,
     * which is valid churn behaviour and counted per reason. */
    void
    attachOne(u64 now) MOLCACHE_REQUIRES(stepMutex_)
    {
        LiveTenant tenant;
        tenant.profile =
            churn_.makeProfile(ordinal_, service_.options().cache.lineSize);
        tenant.ordinal = ordinal_;
        mc::TenantSpec spec;
        // Appended, not `"t" + std::to_string(...)`: GCC 12 at -O3
        // reports a false -Wrestrict on that operator+ overload.
        spec.name = "t";
        spec.name += std::to_string(ordinal_);
        spec.missRateGoal = tenant.profile.missRateGoal;
        tenant.handle = service_.attach(spec);
        if (!tenant.handle)
            return;
        tenant.deathAt = now + churn_.nextLifetime();
        mc::MutexLock lock(boardMutex_);
        live_.push_back(std::move(tenant));
    }

    mc::Service &service_;
    const DrillSpec spec_;

    mc::Mutex boardMutex_;
    std::vector<LiveTenant> live_ MOLCACHE_GUARDED_BY(boardMutex_);

    mc::Mutex stepMutex_;
    ChurnProcess churn_ MOLCACHE_GUARDED_BY(stepMutex_);
    u64 ordinal_ MOLCACHE_GUARDED_BY(stepMutex_) = 0;
    u64 nextArrival_ MOLCACHE_GUARDED_BY(stepMutex_) = 0;
    u64 nextEpoch_ MOLCACHE_GUARDED_BY(stepMutex_) = kEpochRefs;
    u64 settleBound_ MOLCACHE_GUARDED_BY(stepMutex_) = 0;

    /** References issued: the drill's clock. */
    std::atomic<u64> refs_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> settled_{false};
    std::atomic<u64> shedBursts_{0};
    std::atomic<u64> contractViolations_{0};
};

/** Print the rows both drills report, then @p extra, and write the
 * --json telemetry document when asked for. */
inline void
report(const CliParser &cli, const mc::ServiceSummary &summary,
       const std::vector<std::pair<std::string, std::string>> &extra)
{
    TablePrinter table({"metric", "value"});
    table.row({"accesses", std::to_string(summary.accesses)});
    table.row({"miss rate", std::to_string(summary.missRate())});
    table.row({"epochs", std::to_string(summary.epoch)});
    table.row({"tenants attached", std::to_string(summary.tenantsAttached)});
    table.row({"tenants detached", std::to_string(summary.tenantsDetached)});
    table.row({"tenants drained", std::to_string(summary.tenantsDrained)});
    table.row({"tenants live", std::to_string(summary.tenantsLive)});
    table.row({"invariant checks",
               std::to_string(summary.invariantChecksRun)});
    table.row({"invariant violations",
               std::to_string(summary.invariantViolations)});
    table.row({"contract violations",
               std::to_string(summary.contractViolations)});
    for (const auto &[metric, value] : extra)
        table.row({metric, value});
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    const std::string path = cli.str("json");
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    JsonWriter json(out);
    mc::writeServiceSummaryDocument(json, summary);
    out << "\n";
    std::printf("wrote %s\n", path.c_str());
}

/** The gates both drills apply: a clean audit that ran, no contract
 * violation, and every tenant gone and drained. */
inline void
gateDrill(Gate &gate, const mc::ServiceSummary &summary)
{
    gate(summary.invariantViolations == 0, "invariant violations");
    gate(summary.contractViolations == 0, "contract violations");
    gate(summary.tenantsDrained == summary.tenantsDetached,
         "departed tenants left undrained");
    gate(summary.tenantsLive == 0, "tenants left live after shutdown");
    gate(summary.invariantChecksRun >= 1,
         "the per-epoch invariant audit never ran");
}

} // namespace molcache::bench

#endif // MOLCACHE_BENCH_CHURN_DRILL_HPP
