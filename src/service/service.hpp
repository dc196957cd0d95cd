/**
 * @file
 * mc::Service — "molcached", the embeddable concurrent multi-tenant
 * facade over MolecularCache (ROADMAP item 1, docs/molcached.md).
 *
 * The simulator core is single-threaded by design; the service makes it
 * serve concurrent callers with three structural moves:
 *
 *  1. SHARDING.  A shard is one tile cluster — the paper confines every
 *     region to one cluster (Ulmo's search domain), so clusters share
 *     nothing on the access path and each shard can own a whole
 *     MolecularCache instance behind its own mc::Mutex.  A tenant lives
 *     in exactly one shard; access() takes exactly one shard lock and
 *     runs the unmodified allocation-free PR-4 hot path under it.
 *
 *  2. TENANT HANDLES.  attach() returns a refcounted TenantHandle
 *     (service/tenant.hpp); detach() only marks departure, and the
 *     control plane unregisters the region once every handle reference
 *     has dropped — departure drains safely instead of racing workers.
 *
 *  3. EPOCHS.  All cross-shard work — draining departures, recycling
 *     ASIDs (generation-tagged, CacheStats::retire), merging per-shard
 *     statistics into one ServiceSummary snapshot, running the
 *     InvariantChecker audit — happens in runEpochNow(), serialized by
 *     the admin mutex: a single logical writer.  The service owns no
 *     thread and no timer: the embedder paces epochs by calling
 *     runEpochNow(), the drills and perfbench every fixed number of
 *     served references, the way the paper paces Algorithm 1 by
 *     addresses serviced.  Resizing itself
 *     stays where the paper puts it — inside the access path, per
 *     region, under the shard lock — so a shard's behaviour is
 *     byte-identical to the single-threaded simulator fed the same
 *     per-shard access sequence.
 *
 * THE RESILIENCE PLANE (docs/fault_model.md, "Service-level faults &
 * the degradation ladder").  The epoch is also where faults land and
 * where the service climbs down gracefully instead of failing calls:
 *
 *  - a seeded ChaosSchedule (service/chaos.hpp) fires transient flips,
 *    hard-fault decommissions, whole-shard outages and shard stalls at
 *    epoch boundaries, each applied under the target shard's lock;
 *  - a shard that loses kQuarantineThreshold of its molecules is
 *    QUARANTINED: admissions stop, its live tenants are re-homed onto
 *    healthy shards (strictest goal first) with warm-up accounting, and
 *    the shard drains;
 *  - remaining tenants' miss-rate goals are proportionally DEGRADED
 *    (goal x total/healthy capacity) through the normal resize goals,
 *    so the guardian arbitrates the pain instead of thrashing;
 *  - OVERLOAD PROTECTION: attach() admits against healthy capacity
 *    with hysteresis (AttachError::Overloaded), and accessChecked()
 *    answers Overloaded + suggested-retry-after while a shard stalls
 *    instead of queueing behind it;
 *  - recovery SLOs (epochs to drain / remap / back-to-goal, remap
 *    churn) land in ServiceSummary::resilience.
 *
 * With chaos off and admission watermarks unset, none of this runs and
 * the service stays byte-identical to the pre-resilience behaviour.
 *
 * Lock order (docs/molcached.md): adminMutex_ ->
 * {shard mutexes (ascending), summaryMutex_}; the two innermost are
 * never held together.  access() takes only its shard mutex; summary()
 * takes only summaryMutex_.  A remap takes its two shard locks
 * *sequentially* (destination first, then source), never together.
 */

#ifndef MOLCACHE_SERVICE_SERVICE_HPP
#define MOLCACHE_SERVICE_SERVICE_HPP

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/molecular_cache.hpp"
#include "service/chaos.hpp"
#include "service/service_options.hpp"
#include "service/tenant.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace molcache {
namespace mc {

/** Why attach() returned an empty handle. */
enum class AttachError : u8 {
    None = 0,
    /** ServiceOptions::maxTenants live tenants already. */
    TooManyTenants,
    /** The shard's 16-bit ASID space is exhausted (live tenants). */
    NoAsid,
    /** The spec itself is out of range (goal, shard index, ...). */
    BadSpec,
    /** Healthy-capacity admission said no (ServiceOptions::
     * admitHighWater watermark, with hysteresis). */
    Overloaded,
    /** The pinned shard is quarantined, or every shard is. */
    ShardUnavailable,
};

/** Number of AttachError values (per-reason counter array size). */
inline constexpr size_t kAttachErrorCount = 6;

const char *attachErrorName(AttachError error);

/** Backpressure verdict of a checked access (see accessChecked). */
enum class AccessStatus : u8 {
    Ok = 0,
    /** The tenant's shard is stalled; retry after the suggested number
     * of epochs instead of queueing on the shard lock. */
    Overloaded,
};

/** Result of Service::accessChecked: the access outcome plus the
 * backpressure verdict.  When status is Overloaded the access was shed
 * (result is empty) and retryAfterEpochs suggests the backoff. */
struct AccessOutcome
{
    AccessResult result{};
    AccessStatus status = AccessStatus::Ok;
    u64 retryAfterEpochs = 0;
};

/** Per-tenant slice of a summary snapshot. */
struct ServiceTenantSummary
{
    std::string name;
    u32 shard = 0;
    u16 asid = 0;
    u32 generation = 0;
    double goal = 0.0;
    /** Goal actually steered towards (== goal unless the degradation
     * ladder relaxed it after capacity loss). */
    double effectiveGoal = 0.0;
    bool degraded = false;
    bool departing = false;
    /** Quarantine-driven re-homings this tenant survived. */
    u32 remaps = 0;
    /** Remapped and not yet re-converged to its (degraded) goal. */
    bool recovering = false;
    /** Per-epoch interval miss-rate EWMA (the recovery criterion). */
    double missEwma = 0.0;
    u64 accesses = 0;
    u64 hits = 0;
    u64 misses = 0;
    double missRate = 0.0;
};

/** Per-shard slice of a summary snapshot. */
struct ServiceShardSummary
{
    u32 shard = 0;
    u64 accesses = 0;
    u64 hits = 0;
    u64 misses = 0;
    u64 writebacks = 0;
    u32 regions = 0;
    u32 freeMolecules = 0;
    u32 decommissionedMolecules = 0;
    u64 resizeCycles = 0;
    /** Molecules still in service (total - decommissioned). */
    u32 healthyMolecules = 0;
    /** Quarantined by the degradation ladder (permanent: molecule
     * decommissioning never heals). */
    bool quarantined = false;
    /** Epoch until which a chaos stall sheds checked accesses (0 or
     * past = not stalled). */
    u64 stalledUntilEpoch = 0;
};

/** Resilience / recovery-SLO slice of a summary snapshot. */
struct ServiceResilienceSummary
{
    /** The options carried a non-empty chaos storm. */
    bool chaosEnabled = false;
    /** @{ Chaos events fired so far, by kind, plus not-yet-due ones. */
    u64 chaosTransientFlips = 0;
    u64 chaosHardFaults = 0;
    u64 chaosShardOutages = 0;
    u64 chaosShardStalls = 0;
    u64 chaosPending = 0;
    /** @} */
    /** Lifetime quarantine transitions / fully-drained quarantines. */
    u64 shardsQuarantined = 0;
    u64 shardsDrained = 0;
    /** Completed tenant re-homings / tenants still waiting for a
     * healthy destination (retried every epoch). */
    u64 tenantsRemapped = 0;
    u64 remapsPending = 0;
    /** Remap churn: resident lines dropped at the source, and misses
     * absorbed at the destination during warm-up. */
    u64 remapInvalidations = 0;
    u64 remapForcedMisses = 0;
    /** Remapped tenants not yet back at their (degraded) goal. */
    u64 tenantsRecovering = 0;
    /** Checked accesses answered Overloaded instead of served. */
    u64 accessesShed = 0;
    /** attach() rejections by reason (indexed by AttachError; the None
     * slot stays 0 — successes are ServiceSummary::tenantsAttached). */
    std::array<u64, kAttachErrorCount> attachRejects{};
    /** @{ Recovery SLOs: worst case observed so far, in epochs. */
    u64 maxEpochsToDrain = 0;
    u64 maxEpochsToRemap = 0;
    u64 maxEpochsBackToGoal = 0;
    /** @} */

    /** True once any resilience machinery (not just legacy admission
     * rejections) has engaged — gates the additive JSON blocks so
     * fault-free telemetry stays byte-identical. */
    bool
    active() const
    {
        return chaosEnabled || shardsQuarantined != 0 ||
               tenantsRemapped != 0 || remapsPending != 0 ||
               accessesShed != 0 ||
               attachRejects[static_cast<size_t>(
                   AttachError::Overloaded)] != 0 ||
               attachRejects[static_cast<size_t>(
                   AttachError::ShardUnavailable)] != 0;
    }
};

/**
 * Snapshot telemetry, rebuilt by every epoch and returned by value from
 * Service::summary() — readers never see a torn view and never contend
 * with the access path.  Counters are lifetime totals (they survive
 * tenant departure; per-tenant rows list live tenants only).
 */
struct ServiceSummary
{
    /** Epochs completed when this snapshot was taken (0 = none yet). */
    u64 epoch = 0;
    u64 accesses = 0;
    u64 hits = 0;
    u64 misses = 0;
    u64 writebacks = 0;
    u32 tenantsLive = 0;
    u64 tenantsAttached = 0;
    u64 tenantsDetached = 0;
    u64 tenantsDrained = 0;
    u64 invariantChecksRun = 0;
    u64 invariantViolations = 0;
    /** Contract-macro violations observed by the embedder's threads.
     * contract::counters() is thread-local, so the service cannot read
     * worker deltas itself; harnesses (bench/service_churn) fold their
     * workers' deltas in before serializing. */
    u64 contractViolations = 0;
    ServiceResilienceSummary resilience;
    std::vector<ServiceShardSummary> shards;
    std::vector<ServiceTenantSummary> tenants;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

class Service
{
  public:
    /** Validates @p options (fatal with file:line context on builder
     * violations) and builds the shards; no epoch runs until the
     * embedder calls runEpochNow(). */
    explicit Service(const ServiceOptions &options);

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Admit a tenant: pick a shard (least loaded healthy one, unless
     * the spec pins one), allocate a generation-tagged ASID, register
     * the region and return its handle.  On rejection returns an empty
     * handle and sets @p error (when non-null) to the reason; every
     * rejection is also counted per reason in
     * ServiceSummary::resilience.attachRejects.
     */
    TenantHandle attach(const TenantSpec &spec,
                        AttachError *error = nullptr)
        MOLCACHE_EXCLUDES(adminMutex_);

    /**
     * Begin departure: the tenant stops counting against admission and
     * is unregistered by the first epoch that runs after every handle
     * copy (including @p handle itself, which stays usable) is
     * destroyed.  Idempotent.
     */
    void detach(const TenantHandle &handle) MOLCACHE_EXCLUDES(adminMutex_);

    /**
     * The hot path: one shard lock, then the unmodified simulator-core
     * access (probe schedule, resizer, guardian).  Allocation-free in
     * steady state — the perf suite gates this (docs/perf.md).
     *
     * Remap-safe: the routing word is re-checked once under the shard
     * lock and the access re-routes if the control plane re-homed the
     * tenant while we waited.  Ignores stall backpressure (always
     * serves) — latency-sensitive callers use accessChecked().
     */
    AccessResult access(const TenantHandle &handle, Addr addr,
                        bool isWrite = false);

    /**
     * Backpressure-aware access: when the tenant's shard is stalled
     * (chaos ShardStall), the access is shed with AccessStatus::
     * Overloaded and a suggested retry-after in epochs instead of
     * being served; otherwise identical to access().  Shed accesses
     * are counted in ServiceSummary::resilience.accessesShed.
     */
    AccessOutcome accessChecked(const TenantHandle &handle, Addr addr,
                                bool isWrite = false);

    /** The backpressure probe accessChecked() uses: Ok, or Overloaded
     * with the suggested retry-after (lock-free; two atomic loads). */
    AccessStatus backpressure(const TenantHandle &handle,
                              u64 *retryAfterEpochs = nullptr) const;

    /** One reference inside an accessBatch() block. */
    struct TenantAccess
    {
        Addr addr = 0;
        bool write = false;
    };

    /**
     * Batched hot path: semantically identical to calling access() once
     * per entry (same results in @p out, same cache state after), but
     * the shard lock is taken once per fixed-size chunk instead of once
     * per reference; under it the chunk runs through
     * MolecularCache::accessBatch, the plain per-reference loop.
     * Allocation-free: references are staged through a stack buffer.
     * Remap-safe per chunk (routing is re-checked under each chunk's
     * lock hold).  @p in and @p out must have equal lengths.
     */
    void accessBatch(const TenantHandle &handle,
                     std::span<const TenantAccess> in,
                     std::span<AccessResult> out);

    /** Replace the tenant's miss-rate goal; Algorithm 1 re-steers on
     * its next resize epochs (the degradation ladder re-applies its
     * capacity factor on the next epoch). */
    void setGoal(const TenantHandle &handle, double missRateGoal)
        MOLCACHE_EXCLUDES(adminMutex_);

    /**
     * Run one control-plane epoch on the caller's thread: drain
     * departures, fire due chaos events, quarantine/remap/degrade,
     * audit every shard, rebuild the summary snapshot.  This is the
     * only epoch entry point; the embedder chooses the pacing.
     */
    void runEpochNow() MOLCACHE_EXCLUDES(adminMutex_);

    /** Last completed epoch's snapshot (copy; see ServiceSummary). */
    ServiceSummary summary() const MOLCACHE_EXCLUDES(summaryMutex_);

    /** Epochs completed so far. */
    u64
    epochsCompleted() const
    {
        return epochsRun_.load(std::memory_order_acquire);
    }

    u32
    shardCount() const
    {
        return static_cast<u32>(shards_.size());
    }

    const ServiceOptions &
    options() const
    {
        return options_;
    }

  private:
    /** One tile cluster behind its own lock (see file comment). */
    struct Shard
    {
        mc::Mutex mutex;
        std::unique_ptr<MolecularCache> cache MOLCACHE_PT_GUARDED_BY(mutex);
        /** Round-robin home-tile cursor for new regions. */
        u32 nextTile MOLCACHE_GUARDED_BY(mutex) = 0;
        /** Epoch until which a chaos stall sheds checked accesses;
         * written by the control plane, read lock-free by
         * backpressure(). */
        std::atomic<u64> stallUntilEpoch{0};
    };

    /** 16-bit ASID allocator with recycling: departures push their ASID
     * back, so dense per-ASID structures stay sized by peak concurrent
     * tenants, not lifetime tenants.  One pool per shard (ASIDs are
     * per-cache); objects live in asidPools_, which is guarded by
     * adminMutex_. */
    struct AsidPool
    {
        std::vector<u16> freeList;
        u32 nextFresh = 0;

        bool acquire(Asid *out);
        void release(Asid asid);
    };

    /** Control-plane view of one tenant (weak: handles own the state). */
    struct TenantRecord
    {
        std::weak_ptr<detail::TenantState> live;
        std::string name;
        u32 shard = 0;
        Asid asid{};
        u32 generation = 0;
        double goal = 0.0;
        /** Goal after the degradation ladder's capacity factor. */
        double effectiveGoal = 0.0;
        /** Spec facts a remap must re-register with. */
        u32 floor = 0;
        u32 lineMultiple = 1;
        /** Molecules this tenant demands for healthy-capacity
         * admission (max(floor, 1)). */
        u32 demand = 1;
        bool departing = false;
        /** @{ Remap / recovery bookkeeping (docs/fault_model.md). */
        u32 remaps = 0;
        u64 remapEpoch = 0;
        bool recovering = false;
        double preRemapEwma = 0.0;
        double missEwma = 0.0;
        bool ewmaValid = false;
        /** Stats-slot values at the last epoch (interval deltas). */
        u64 lastAccesses = 0;
        u64 lastMisses = 0;
        /** Counters carried over from shards this tenant left. */
        u64 carryAccesses = 0;
        u64 carryHits = 0;
        u64 carryMisses = 0;
        /** @} */
    };

    /** Control-plane health state of one shard. */
    struct ShardHealth
    {
        bool quarantined = false;
        u64 quarantinedAt = 0;
        /** Epoch the quarantined shard reached zero regions (0 = not
         * yet). */
        u64 drainedAt = 0;
        /** Molecules still in service (refreshed every epoch). */
        u32 healthy = 0;
    };

    /** Validates @p options, then builds one seeded cache per shard. */
    static std::vector<std::unique_ptr<Shard>> buildShards(
        const ServiceOptions &options);

    void runEpochLocked() MOLCACHE_REQUIRES(adminMutex_)
        MOLCACHE_EXCLUDES(summaryMutex_);
    /** Least-loaded non-quarantined shard, or shards_.size() when every
     * shard is quarantined. */
    u32 pickShard() const MOLCACHE_REQUIRES(adminMutex_);
    /** Fire chaos events due at @p epoch (under the shard locks). */
    void applyChaosLocked(u64 epoch) MOLCACHE_REQUIRES(adminMutex_);
    /** Refresh per-shard healthy counts; quarantine over-threshold
     * shards. */
    void updateHealthLocked(u64 epoch) MOLCACHE_REQUIRES(adminMutex_);
    /** Re-home live tenants off quarantined shards (strictest goal
     * first); the stragglers retry next epoch. */
    void remapQuarantinedLocked(u64 epoch) MOLCACHE_REQUIRES(adminMutex_);
    /** Move one tenant to @p dest; false when no ASID is free there or
     * the tenant expired. */
    bool remapTenantLocked(TenantRecord &record, u32 dest, u64 epoch)
        MOLCACHE_REQUIRES(adminMutex_);
    /** Recompute healthy capacity and re-apply degraded goals. */
    void degradeGoalsLocked() MOLCACHE_REQUIRES(adminMutex_);

    const ServiceOptions options_;
    // Shard array: immutable after construction (the vector and the
    // Shard objects it points to are built once; all mutable state
    // inside a Shard is guarded by its own mutex).
    const std::vector<std::unique_ptr<Shard>> shards_;
    /** Molecules per shard (immutable geometry). */
    const u32 shardMolecules_;

    mutable mc::Mutex adminMutex_;
    std::vector<TenantRecord> tenants_ MOLCACHE_GUARDED_BY(adminMutex_);
    std::vector<AsidPool> asidPools_ MOLCACHE_GUARDED_BY(adminMutex_);
    std::vector<u32> liveByShard_ MOLCACHE_GUARDED_BY(adminMutex_);
    std::vector<ShardHealth> shardHealth_ MOLCACHE_GUARDED_BY(adminMutex_);
    ChaosSchedule chaosSchedule_ MOLCACHE_GUARDED_BY(adminMutex_);
    u64 tenantsAttached_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 tenantsDetached_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 tenantsDrained_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 invariantChecksRun_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 invariantViolations_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    /** @{ Resilience accounting (see ServiceResilienceSummary). */
    u64 chaosTransientFlips_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 chaosHardFaults_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 chaosShardOutages_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 chaosShardStalls_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 shardsQuarantined_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 shardsDrained_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 tenantsRemapped_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 remapsPending_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 remapInvalidations_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 remapForcedMisses_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 maxEpochsToDrain_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 maxEpochsToRemap_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    u64 maxEpochsBackToGoal_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    /** Tenant demand (molecules) counting against admission. */
    u64 demandMolecules_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    /** Healthy molecules across non-quarantined shards (last epoch). */
    u64 healthyMoleculesTotal_ MOLCACHE_GUARDED_BY(adminMutex_) = 0;
    /** Hysteresis latch: once admission closes on the high watermark it
     * reopens only below the low one. */
    bool admissionClosed_ MOLCACHE_GUARDED_BY(adminMutex_) = false;
    /** @} */

    /** Per-reason attach rejections (lock-free so pre-admission spec
     * failures count without taking adminMutex_). */
    std::array<std::atomic<u64>, kAttachErrorCount> attachErrors_{};
    /** Checked accesses shed with AccessStatus::Overloaded. */
    std::atomic<u64> accessesShed_{0};

    mutable mc::Mutex summaryMutex_;
    ServiceSummary summary_ MOLCACHE_GUARDED_BY(summaryMutex_);

    std::atomic<u64> epochsRun_{0};
};

} // namespace mc
} // namespace molcache

#endif // MOLCACHE_SERVICE_SERVICE_HPP
