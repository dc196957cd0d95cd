#include "service/service.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "exec/seed_stream.hpp"
#include "fault/invariant_checker.hpp"
#include "util/logging.hpp"

namespace molcache {
namespace mc {

const char *
attachErrorName(AttachError error)
{
    switch (error) {
    case AttachError::None:
        return "none";
    case AttachError::TooManyTenants:
        return "too-many-tenants";
    case AttachError::NoAsid:
        return "no-asid";
    case AttachError::BadSpec:
        return "bad-spec";
    case AttachError::Overloaded:
        return "overloaded";
    case AttachError::ShardUnavailable:
        return "shard-unavailable";
    }
    return "unknown";
}

bool
Service::AsidPool::acquire(Asid *out)
{
    if (!freeList.empty()) {
        *out = Asid{freeList.back()};
        freeList.pop_back();
        return true;
    }
    if (nextFresh >= kInvalidAsid.value())
        return false;
    *out = Asid{static_cast<u16>(nextFresh)};
    ++nextFresh;
    return true;
}

void
Service::AsidPool::release(Asid asid)
{
    freeList.push_back(asid.value());
}

std::vector<std::unique_ptr<Service::Shard>>
Service::buildShards(const ServiceOptions &options)
{
    options.validate();
    std::vector<std::unique_ptr<Shard>> shards;
    shards.reserve(options.shards);
    for (u32 i = 0; i < options.shards; ++i) {
        // Shards are independent caches; give each its own seed stream
        // (the sweep engine's SplitMix64 derivation) so identical
        // tenants on different shards don't mirror placement decisions.
        MolecularCacheParams params = options.cache;
        params.seed = deriveJobSeed(options.cache.seed, i);
        auto shard = std::make_unique<Shard>();
        shard->cache = std::make_unique<MolecularCache>(params);
        shards.push_back(std::move(shard));
    }
    return shards;
}

Service::Service(const ServiceOptions &options)
    : options_(options), shards_(buildShards(options_)),
      shardMolecules_(options_.cache.moleculesPerTile *
                      options_.cache.tilesPerCluster)
{
    MutexLock admin(adminMutex_);
    asidPools_.resize(shards_.size());
    liveByShard_.assign(shards_.size(), 0u);
    shardHealth_.assign(shards_.size(), ShardHealth{});
    for (ShardHealth &health : shardHealth_)
        health.healthy = shardMolecules_;
    healthyMoleculesTotal_ =
        static_cast<u64>(shards_.size()) * shardMolecules_;
    if (options_.chaos.any())
        chaosSchedule_ = ChaosSchedule::build(
            options_.chaos, static_cast<u32>(shards_.size()),
            shardMolecules_, options_.cache.linesPerMolecule());
}

u32
Service::pickShard() const
{
    u32 best = static_cast<u32>(shards_.size());
    for (u32 i = 0; i < liveByShard_.size(); ++i) {
        if (shardHealth_[i].quarantined)
            continue;
        if (best >= shards_.size() || liveByShard_[i] < liveByShard_[best])
            best = i;
    }
    return best;
}

TenantHandle
Service::attach(const TenantSpec &spec, AttachError *error)
{
    const auto fail = [error, this](AttachError reason) {
        attachErrors_[static_cast<size_t>(reason)].fetch_add(
            1, std::memory_order_relaxed);
        if (error != nullptr)
            *error = reason;
        return TenantHandle{};
    };

    const double goal = spec.missRateGoal == 0.0
                            ? options_.cache.defaultMissRateGoal
                            : spec.missRateGoal;
    if (goal <= 0.0 || goal > 1.0 || spec.lineMultiple == 0)
        return fail(AttachError::BadSpec);
    if (spec.shard != TenantSpec::kAnyShard &&
        spec.shard >= shards_.size())
        return fail(AttachError::BadSpec);
    const u32 floor = spec.floorMolecules;

    MutexLock admin(adminMutex_);
    if (options_.maxTenants != 0) {
        u32 live = 0;
        for (const u32 count : liveByShard_)
            live += count;
        if (live >= options_.maxTenants)
            return fail(AttachError::TooManyTenants);
    }

    // Overload protection: admit against *healthy* capacity, with
    // hysteresis so admission doesn't flap at the watermark (closed on
    // the high one, reopened only below the low one).
    const u32 demand = floor != 0 ? floor : 1u;
    if (options_.admitHighWater > 0.0) {
        const double healthy =
            static_cast<double>(healthyMoleculesTotal_);
        const double projected =
            static_cast<double>(demandMolecules_ + demand);
        const double low = options_.admitLowWater > 0.0
                               ? options_.admitLowWater
                               : options_.admitHighWater;
        if (admissionClosed_) {
            if (projected <= low * healthy)
                admissionClosed_ = false;
            else
                return fail(AttachError::Overloaded);
        } else if (projected > options_.admitHighWater * healthy) {
            admissionClosed_ = true;
            return fail(AttachError::Overloaded);
        }
    }

    u32 shard_index = 0;
    if (spec.shard != TenantSpec::kAnyShard) {
        if (shardHealth_[spec.shard].quarantined)
            return fail(AttachError::ShardUnavailable);
        shard_index = spec.shard;
    } else {
        shard_index = pickShard();
        if (shard_index >= shards_.size())
            return fail(AttachError::ShardUnavailable);
    }

    Asid asid{};
    if (!asidPools_[shard_index].acquire(&asid))
        return fail(AttachError::NoAsid);

    Shard &sh = *shards_[shard_index];
    u32 generation = 0;
    {
        MutexLock lock(sh.mutex);
        const u32 tile = sh.nextTile;
        sh.nextTile = (sh.nextTile + 1u) % options_.cache.tilesPerCluster;
        sh.cache->registerApplication(asid, goal, ClusterId{0}, tile,
                                      spec.lineMultiple);
        if (floor != 0)
            sh.cache->setRegionFloor(asid, floor);
        // The stats slot's retire count at attach time: (asid,
        // generation) stays unique across ASID recycling.
        generation = sh.cache->stats().generationOf(asid);
    }

    auto state = std::make_shared<detail::TenantState>();
    state->routing.store(detail::TenantState::pack(shard_index, asid.value(),
                                                   generation),
                         std::memory_order_relaxed);
    state->name = spec.name.empty()
                      ? molcache::detail::concat("tenant", asid.value())
                      : spec.name;

    TenantRecord record;
    record.live = state;
    record.name = state->name;
    record.shard = shard_index;
    record.asid = asid;
    record.generation = generation;
    record.goal = goal;
    record.effectiveGoal = goal;
    record.floor = floor;
    record.lineMultiple = spec.lineMultiple;
    record.demand = demand;
    tenants_.push_back(std::move(record));
    ++liveByShard_[shard_index];
    demandMolecules_ += demand;
    ++tenantsAttached_;
    if (error != nullptr)
        *error = AttachError::None;
    return TenantHandle{std::move(state)};
}

void
Service::detach(const TenantHandle &handle)
{
    MOLCACHE_EXPECT(handle.valid(), "detach() on an empty TenantHandle");
    if (!handle.valid())
        return;
    MutexLock admin(adminMutex_);
    for (TenantRecord &record : tenants_) {
        // Identity match on the shared state: routing facts can change
        // under a quarantine remap, the state object never does.
        if (record.live.lock() != handle.state_)
            continue;
        if (!record.departing) {
            record.departing = true;
            MOLCACHE_INVARIANT(liveByShard_[record.shard] > 0,
                               "live-tenant count underflow");
            --liveByShard_[record.shard];
            MOLCACHE_INVARIANT(demandMolecules_ >= record.demand,
                               "tenant-demand underflow");
            demandMolecules_ -= record.demand;
            ++tenantsDetached_;
        }
        return; // second detach of the same tenant is a no-op
    }
    // No record: the tenant already drained (detach after the epoch
    // collected it) — idempotent by design.
}

AccessResult
Service::access(const TenantHandle &handle, Addr addr, bool isWrite)
{
    MOLCACHE_EXPECT(handle.valid(), "access() through an empty TenantHandle");
    if (!handle.valid())
        return AccessResult{};
    const detail::TenantState &state = *handle.state_;
    for (;;) {
        const u64 route = state.routing.load(std::memory_order_acquire);
        Shard &sh = *shards_[detail::TenantState::shardOf(route)];
        MutexLock lock(sh.mutex);
        // A remap republishes the routing word *before* it waits for
        // this shard's lock to tear the old region down, so a stale
        // route can never survive the lock acquisition: re-check and
        // re-route if the tenant moved while we waited.
        if (state.routing.load(std::memory_order_relaxed) != route)
            continue;
        return sh.cache->access(
            MemAccess{addr, Asid{detail::TenantState::asidOf(route)},
                      isWrite ? AccessType::Write : AccessType::Read});
    }
}

AccessOutcome
Service::accessChecked(const TenantHandle &handle, Addr addr, bool isWrite)
{
    AccessOutcome outcome;
    u64 retry = 0;
    if (backpressure(handle, &retry) == AccessStatus::Overloaded) {
        outcome.status = AccessStatus::Overloaded;
        outcome.retryAfterEpochs = retry;
        accessesShed_.fetch_add(1, std::memory_order_relaxed);
        return outcome;
    }
    outcome.result = access(handle, addr, isWrite);
    return outcome;
}

AccessStatus
Service::backpressure(const TenantHandle &handle,
                      u64 *retryAfterEpochs) const
{
    MOLCACHE_EXPECT(handle.valid(),
                    "backpressure() on an empty TenantHandle");
    if (!handle.valid())
        return AccessStatus::Ok;
    const u64 route = handle.state_->routing.load(std::memory_order_acquire);
    const Shard &sh = *shards_[detail::TenantState::shardOf(route)];
    const u64 until = sh.stallUntilEpoch.load(std::memory_order_acquire);
    if (until == 0)
        return AccessStatus::Ok; // fast path: never stalled
    const u64 epoch = epochsRun_.load(std::memory_order_acquire);
    if (until <= epoch)
        return AccessStatus::Ok;
    if (retryAfterEpochs != nullptr)
        *retryAfterEpochs = until - epoch;
    return AccessStatus::Overloaded;
}

void
Service::accessBatch(const TenantHandle &handle,
                     std::span<const TenantAccess> in,
                     std::span<AccessResult> out)
{
    MOLCACHE_EXPECT(in.size() == out.size(),
                    "accessBatch() span length mismatch");
    MOLCACHE_EXPECT(handle.valid(),
                    "accessBatch() through an empty TenantHandle");
    if (!handle.valid()) {
        std::fill(out.begin(), out.end(), AccessResult{});
        return;
    }
    const detail::TenantState &state = *handle.state_;
    // Stage through a stack chunk so the path stays allocation-free and
    // one lock hold covers a whole chunk without starving other tenants
    // of the shard for arbitrarily long blocks.
    constexpr size_t kChunk = 256;
    std::array<MemAccess, kChunk> staged;
    for (size_t off = 0; off < in.size(); off += kChunk) {
        const size_t n = std::min(kChunk, in.size() - off);
        for (;;) {
            const u64 route = state.routing.load(std::memory_order_acquire);
            const Asid asid{detail::TenantState::asidOf(route)};
            for (size_t i = 0; i < n; ++i) {
                staged[i] = MemAccess{in[off + i].addr, asid,
                                      in[off + i].write
                                          ? AccessType::Write
                                          : AccessType::Read};
            }
            Shard &sh = *shards_[detail::TenantState::shardOf(route)];
            MutexLock lock(sh.mutex);
            if (state.routing.load(std::memory_order_relaxed) != route)
                continue; // re-homed mid-batch: restage this chunk
            sh.cache->accessBatch(
                std::span<const MemAccess>{staged.data(), n},
                out.subspan(off, n));
            break;
        }
    }
}

void
Service::setGoal(const TenantHandle &handle, double missRateGoal)
{
    MOLCACHE_EXPECT(handle.valid(), "setGoal() on an empty TenantHandle");
    if (!handle.valid())
        return;
    MutexLock admin(adminMutex_);
    for (TenantRecord &record : tenants_) {
        if (record.live.lock() != handle.state_)
            continue;
        record.goal = missRateGoal;
        // The degradation ladder re-applies its capacity factor on the
        // next epoch; until then steer at the caller's goal.
        record.effectiveGoal = missRateGoal;
        Shard &sh = *shards_[record.shard];
        MutexLock lock(sh.mutex);
        sh.cache->setResizeGoal(record.asid, missRateGoal); // validates
        return;
    }
    // No record: the tenant already drained — like detach, a no-op.
}

void
Service::runEpochNow()
{
    MutexLock admin(adminMutex_);
    runEpochLocked();
}

void
Service::applyChaosLocked(u64 epoch)
{
    while (const ChaosEvent *event = chaosSchedule_.drainOne(epoch)) {
        Shard &sh = *shards_[event->shard];
        switch (event->kind) {
        case ChaosKind::TransientFlip: {
            MutexLock lock(sh.mutex);
            applyShardChaos(*sh.cache, *event);
            ++chaosTransientFlips_;
            break;
        }
        case ChaosKind::HardFault: {
            MutexLock lock(sh.mutex);
            applyShardChaos(*sh.cache, *event);
            ++chaosHardFaults_;
            break;
        }
        case ChaosKind::ShardOutage: {
            MutexLock lock(sh.mutex);
            applyShardChaos(*sh.cache, *event);
            ++chaosShardOutages_;
            break;
        }
        case ChaosKind::ShardStall: {
            // Service-side only: no cache damage, the shard just sheds
            // checked accesses until the stall expires.
            const u64 until = epoch + event->stallEpochs;
            if (until > sh.stallUntilEpoch.load(std::memory_order_relaxed))
                sh.stallUntilEpoch.store(until, std::memory_order_release);
            ++chaosShardStalls_;
            break;
        }
        }
    }
}

void
Service::updateHealthLocked(u64 epoch)
{
    for (u32 i = 0; i < shards_.size(); ++i) {
        Shard &sh = *shards_[i];
        u32 decommissioned = 0;
        {
            MutexLock lock(sh.mutex);
            decommissioned = sh.cache->decommissionedMolecules();
        }
        ShardHealth &health = shardHealth_[i];
        health.healthy = shardMolecules_ - decommissioned;
        if (!health.quarantined &&
            static_cast<double>(decommissioned) >=
                kQuarantineThreshold *
                    static_cast<double>(shardMolecules_)) {
            health.quarantined = true;
            health.quarantinedAt = epoch;
            ++shardsQuarantined_;
            warn("service epoch ", epoch, ": shard ", i, " quarantined (",
                 decommissioned, "/", shardMolecules_,
                 " molecules decommissioned)");
        }
    }
}

bool
Service::remapTenantLocked(TenantRecord &record, u32 dest, u64 epoch)
{
    std::shared_ptr<detail::TenantState> state = record.live.lock();
    if (state == nullptr)
        return false; // expired mid-epoch; the next drain collects it
    Asid new_asid{};
    if (!asidPools_[dest].acquire(&new_asid))
        return false;

    const u32 src = record.shard;
    const Asid old_asid = record.asid;
    u32 generation = 0;
    {
        Shard &dst = *shards_[dest];
        MutexLock lock(dst.mutex);
        const u32 tile = dst.nextTile;
        dst.nextTile = (dst.nextTile + 1u) % options_.cache.tilesPerCluster;
        dst.cache->registerApplication(new_asid, record.effectiveGoal,
                                       ClusterId{0}, tile,
                                       record.lineMultiple);
        if (record.floor != 0)
            dst.cache->setRegionFloor(new_asid, record.floor);
        generation = dst.cache->stats().generationOf(new_asid);
    }

    // Republish the routing word BEFORE tearing the source down: a
    // worker that already won the source lock finishes its access
    // there (the region is still registered until we take that lock),
    // and every access after our lock acquisition re-checks the word
    // and lands on the destination.  No window exists where a worker
    // can use the old ASID after the unregister.
    state->routing.store(detail::TenantState::pack(dest, new_asid.value(),
                                                   generation),
                         std::memory_order_release);

    {
        Shard &sh = *shards_[src];
        MutexLock lock(sh.mutex);
        // Remap churn: everything resident at the source is dropped
        // (invalidations), and the destination starts cold.
        remapInvalidations_ += sh.cache->residentLines(old_asid);
        const AccessCounters &c = sh.cache->stats().forAsid(old_asid);
        record.carryAccesses += c.accesses;
        record.carryHits += c.hits;
        record.carryMisses += c.misses;
        sh.cache->unregisterApplication(old_asid);
        sh.cache->retireApplicationStats(old_asid);
    }
    asidPools_[src].release(old_asid);

    MOLCACHE_INVARIANT(liveByShard_[src] > 0,
                       "remap live-tenant count underflow");
    --liveByShard_[src];
    ++liveByShard_[dest];
    record.shard = dest;
    record.asid = new_asid;
    record.generation = generation;
    ++record.remaps;
    record.remapEpoch = epoch;
    record.recovering = true;
    record.preRemapEwma = record.ewmaValid ? record.missEwma : 1.0;
    record.ewmaValid = false; // re-seed the EWMA at the destination
    record.lastAccesses = 0;
    record.lastMisses = 0;
    ++tenantsRemapped_;
    maxEpochsToRemap_ = std::max(maxEpochsToRemap_,
                                 epoch - shardHealth_[src].quarantinedAt);
    return true;
}

void
Service::remapQuarantinedLocked(u64 epoch)
{
    remapsPending_ = 0;
    // Priority order: strictest miss-rate goal first (it has the most
    // QoS to lose from staying on a dead shard), deterministic ASID
    // tiebreak.  Keys are copied out so the comparator touches no
    // guarded state.
    struct Candidate
    {
        double goal;
        u16 asid;
        size_t idx;
    };
    std::vector<Candidate> candidates;
    for (size_t idx = 0; idx < tenants_.size(); ++idx) {
        const TenantRecord &record = tenants_[idx];
        // Departing tenants drain in place; live ones get re-homed.
        if (shardHealth_[record.shard].quarantined && !record.departing &&
            !record.live.expired())
            candidates.push_back({record.goal, record.asid.value(), idx});
    }
    if (candidates.empty())
        return;
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         if (a.goal != b.goal)
                             return a.goal < b.goal;
                         return a.asid < b.asid;
                     });
    for (size_t i = 0; i < candidates.size(); ++i) {
        const u32 dest = pickShard();
        if (dest >= shards_.size()) {
            // Every shard is quarantined: nothing to remap onto; all
            // remaining candidates wait for the next epoch.
            remapsPending_ += candidates.size() - i;
            return;
        }
        if (!remapTenantLocked(tenants_[candidates[i].idx], dest, epoch))
            ++remapsPending_; // no free ASID there (or expired); retry
    }
}

void
Service::degradeGoalsLocked()
{
    u64 healthy = 0;
    for (const ShardHealth &health : shardHealth_)
        if (!health.quarantined)
            healthy += health.healthy;
    healthyMoleculesTotal_ = healthy;
    const u64 total = static_cast<u64>(shards_.size()) * shardMolecules_;
    if (healthy == total)
        return; // full capacity: nothing to relax
    for (TenantRecord &record : tenants_) {
        if (record.departing)
            continue;
        double effective = 1.0;
        if (healthy != 0)
            effective = std::min(
                1.0, record.goal * (static_cast<double>(total) /
                                    static_cast<double>(healthy)));
        if (effective == record.effectiveGoal)
            continue;
        record.effectiveGoal = effective;
        Shard &sh = *shards_[record.shard];
        MutexLock lock(sh.mutex);
        sh.cache->setResizeGoal(record.asid, effective);
    }
}

void
Service::runEpochLocked()
{
    const u64 epoch = epochsRun_.load(std::memory_order_relaxed) + 1u;

    // 1) Drain departures whose last handle reference has dropped.  The
    // weak_ptr is the drain barrier: while any worker still holds the
    // tenant, the region stays registered and servable.
    for (auto it = tenants_.begin(); it != tenants_.end();) {
        if (it->departing && it->live.expired()) {
            Shard &sh = *shards_[it->shard];
            {
                MutexLock lock(sh.mutex);
                sh.cache->unregisterApplication(it->asid);
                sh.cache->retireApplicationStats(it->asid);
            }
            asidPools_[it->shard].release(it->asid);
            ++tenantsDrained_;
            it = tenants_.erase(it);
        } else {
            ++it;
        }
    }

    // 2) The resilience plane: fire due chaos, quarantine shards over
    // the decommission threshold, re-home their tenants, relax goals to
    // the surviving capacity.  With chaos off none of this runs and the
    // epoch is byte-identical to the pre-resilience control plane.
    if (options_.chaos.any()) {
        applyChaosLocked(epoch);
        updateHealthLocked(epoch);
        remapQuarantinedLocked(epoch);
        degradeGoalsLocked();
    }

    // 3) Audit + merge per-shard statistics into one snapshot.
    ServiceSummary snap;
    snap.epoch = epoch;
    snap.shards.reserve(shards_.size());
    snap.tenants.reserve(tenants_.size());
    u64 recovering_tenants = 0;
    for (u32 i = 0; i < shards_.size(); ++i) {
        Shard &sh = *shards_[i];
        MutexLock lock(sh.mutex);
        const InvariantChecker::Report report =
            InvariantChecker::check(*sh.cache);
        invariantChecksRun_ += report.checksRun;
        invariantViolations_ += static_cast<u64>(report.violations.size());
        for (const std::string &violation : report.violations)
            warn("service epoch ", epoch, ", shard ", i,
                 ": invariant violation: ", violation);
        const AccessCounters &g = sh.cache->stats().global();
        ServiceShardSummary shard_summary;
        shard_summary.shard = i;
        shard_summary.accesses = g.accesses;
        shard_summary.hits = g.hits;
        shard_summary.misses = g.misses;
        shard_summary.writebacks = g.writebacks;
        shard_summary.regions =
            static_cast<u32>(sh.cache->registeredAsids().size());
        shard_summary.freeMolecules = sh.cache->freeMolecules();
        shard_summary.decommissionedMolecules =
            sh.cache->decommissionedMolecules();
        shard_summary.resizeCycles = sh.cache->resizeCycles();
        shard_summary.healthyMolecules =
            shardMolecules_ - shard_summary.decommissionedMolecules;
        shard_summary.quarantined = shardHealth_[i].quarantined;
        shard_summary.stalledUntilEpoch =
            sh.stallUntilEpoch.load(std::memory_order_relaxed);

        // A quarantined shard counts as drained once its last region
        // (departing tenants included) is gone.
        ShardHealth &health = shardHealth_[i];
        if (health.quarantined && health.drainedAt == 0 &&
            shard_summary.regions == 0) {
            health.drainedAt = epoch;
            maxEpochsToDrain_ = std::max(
                maxEpochsToDrain_, epoch - health.quarantinedAt);
            ++shardsDrained_;
        }

        snap.accesses += shard_summary.accesses;
        snap.hits += shard_summary.hits;
        snap.misses += shard_summary.misses;
        snap.writebacks += shard_summary.writebacks;
        snap.shards.push_back(std::move(shard_summary));

        for (TenantRecord &record : tenants_) {
            if (record.shard != i)
                continue;
            const AccessCounters &c = sh.cache->stats().forAsid(record.asid);
            // Per-epoch interval miss rate -> EWMA: the re-convergence
            // criterion for remapped tenants (and telemetry for all).
            const u64 delta_accesses = c.accesses - record.lastAccesses;
            const u64 delta_misses = c.misses - record.lastMisses;
            record.lastAccesses = c.accesses;
            record.lastMisses = c.misses;
            if (delta_accesses > 0) {
                const double rate = static_cast<double>(delta_misses) /
                                    static_cast<double>(delta_accesses);
                record.missEwma = record.ewmaValid
                                      ? 0.3 * rate + 0.7 * record.missEwma
                                      : rate;
                record.ewmaValid = true;
            }
            if (record.recovering) {
                // Warm-up accounting: misses the move forced on the
                // tenant until it is back at goal (or at its own
                // pre-remap level, whichever comes first).
                remapForcedMisses_ += delta_misses;
                const double slack = options_.recoverySlack;
                if (record.ewmaValid && delta_accesses > 0 &&
                    (record.missEwma <= record.effectiveGoal + slack ||
                     record.missEwma <= record.preRemapEwma + slack)) {
                    record.recovering = false;
                    maxEpochsBackToGoal_ =
                        std::max(maxEpochsBackToGoal_,
                                 epoch - record.remapEpoch);
                }
            }
            if (record.recovering && !record.departing)
                ++recovering_tenants;

            ServiceTenantSummary tenant_summary;
            tenant_summary.name = record.name;
            tenant_summary.shard = i;
            tenant_summary.asid = record.asid.value();
            tenant_summary.generation = record.generation;
            tenant_summary.goal = record.goal;
            tenant_summary.effectiveGoal = record.effectiveGoal;
            tenant_summary.degraded =
                record.effectiveGoal > record.goal;
            tenant_summary.departing = record.departing;
            tenant_summary.remaps = record.remaps;
            tenant_summary.recovering = record.recovering;
            tenant_summary.missEwma = record.missEwma;
            tenant_summary.accesses = record.carryAccesses + c.accesses;
            tenant_summary.hits = record.carryHits + c.hits;
            tenant_summary.misses = record.carryMisses + c.misses;
            tenant_summary.missRate =
                tenant_summary.accesses == 0
                    ? 0.0
                    : static_cast<double>(tenant_summary.misses) /
                          static_cast<double>(tenant_summary.accesses);
            snap.tenants.push_back(std::move(tenant_summary));
        }
    }
    u32 live = 0;
    for (const u32 count : liveByShard_)
        live += count;
    snap.tenantsLive = live;
    snap.tenantsAttached = tenantsAttached_;
    snap.tenantsDetached = tenantsDetached_;
    snap.tenantsDrained = tenantsDrained_;
    snap.invariantChecksRun = invariantChecksRun_;
    snap.invariantViolations = invariantViolations_;

    ServiceResilienceSummary &res = snap.resilience;
    res.chaosEnabled = options_.chaos.any();
    res.chaosTransientFlips = chaosTransientFlips_;
    res.chaosHardFaults = chaosHardFaults_;
    res.chaosShardOutages = chaosShardOutages_;
    res.chaosShardStalls = chaosShardStalls_;
    res.chaosPending = chaosSchedule_.pending();
    res.shardsQuarantined = shardsQuarantined_;
    res.shardsDrained = shardsDrained_;
    res.tenantsRemapped = tenantsRemapped_;
    res.remapsPending = remapsPending_;
    res.remapInvalidations = remapInvalidations_;
    res.remapForcedMisses = remapForcedMisses_;
    res.tenantsRecovering = recovering_tenants;
    res.accessesShed = accessesShed_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kAttachErrorCount; ++i)
        res.attachRejects[i] =
            attachErrors_[i].load(std::memory_order_relaxed);
    res.maxEpochsToDrain = maxEpochsToDrain_;
    res.maxEpochsToRemap = maxEpochsToRemap_;
    res.maxEpochsBackToGoal = maxEpochsBackToGoal_;

    // 4) Publish the snapshot, then the epoch number (release pairs
    // with epochsCompleted()'s acquire: a reader that observes epoch N
    // can read snapshot N through summary()).
    {
        MutexLock lock(summaryMutex_);
        summary_ = std::move(snap);
    }
    epochsRun_.store(epoch, std::memory_order_release);
}

ServiceSummary
Service::summary() const
{
    MutexLock lock(summaryMutex_);
    return summary_;
}

} // namespace mc
} // namespace molcache
