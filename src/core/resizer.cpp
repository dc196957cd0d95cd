#include "core/resizer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/guardian.hpp"
#include "util/logging.hpp"

namespace molcache {

namespace {

/** Replacement rate above which a partition is considered thrashing. */
constexpr double kThrashThreshold = 0.5;

/**
 * Relative improvement over the previous interval required for the
 * grow branch ("miss rate < last miss rate") to keep growing; filters
 * interval-to-interval noise that would otherwise random-walk a
 * partition upward at its miss-rate floor.
 */
constexpr double kImprovementEpsilon = 0.05;

/**
 * Broker wrapper used when a QosGuardian is active: withdrawals are
 * clamped at the region's capacity floor and every grant outcome feeds
 * the pool-pressure signal.  Algorithm 1 itself stays unaware of it.
 */
class GuardedBroker final : public MoleculeBroker
{
  public:
    GuardedBroker(MoleculeBroker &inner, QosGuardian &guardian)
        : inner_(inner), guardian_(guardian)
    {
    }

    u32
    grant(Region &region, u32 count) override
    {
        const u32 got = inner_.grant(region, count);
        guardian_.noteGrant(region.asid(), count, got);
        return got;
    }

    u32
    withdraw(Region &region, u32 count) override
    {
        const u32 allowed = guardian_.clampWithdraw(region, count);
        if (allowed == 0)
            return 0;
        return inner_.withdraw(region, allowed);
    }

  private:
    MoleculeBroker &inner_;
    QosGuardian &guardian_;
};

} // namespace

Resizer::Resizer(const MolecularCacheParams &params)
    : params_(params)
{
}

RegionResize
Resizer::resizeRegion(Region &region, double goal,
                      MoleculeBroker &rawBroker, QosGuardian *guardian) const
{
    RegionResize out;

    // With the guardian active every grant/withdraw below goes through
    // the floor-clamping, pressure-tracking wrapper; without it the raw
    // broker is used directly and this function is byte-identical to
    // the unguarded build.
    std::optional<GuardedBroker> guarded;
    if (guardian != nullptr)
        guarded.emplace(rawBroker, *guardian);
    MoleculeBroker &broker =
        guarded ? static_cast<MoleculeBroker &>(*guarded) : rawBroker;

    // Fault recovery runs ahead of the regular Algorithm-1 decision (and
    // regardless of interval sample size): capacity lost to
    // decommissioned molecules is re-acquired from the cluster pool so a
    // faulted region converges back toward its goal instead of silently
    // violating QoS.  Retried every cycle while the grant falls short;
    // abandoned once the cluster has nothing left to give (graceful
    // degradation — the region then competes through Algorithm 1 alone).
    if (region.pendingReacquire > 0) {
        const u32 got = broker.grant(region, region.pendingReacquire);
        granted_ += got;
        recoveryGrants_ += got;
        out.delta += static_cast<i32>(got);
        region.pendingReacquire = got == 0 ? 0
                                           : region.pendingReacquire - got;
    }

    // Fairness guard: a region squeezed below its capacity floor (fault
    // decommissioning, or an exhausted pool at reacquire time) is topped
    // back up first.  Unlike pendingReacquire this is retried forever —
    // the floor is a standing guarantee, not a one-shot repair.
    if (guardian != nullptr) {
        const u32 got = guardian->restoreFloor(region, rawBroker);
        granted_ += got;
        out.delta += static_cast<i32>(got);
    }

    // Predictive pre-provisioning (guardian predictive mode): with a
    // trusted phase hint landing before the next wakeup, capacity moves
    // ahead of the shift instead of after it.  Runs through the guarded
    // broker so the floor clamp, pool pressure and fair-share bounds all
    // apply.  The delta is kept out of the sign fed to afterDecision:
    // honest phase hints alternate direction with the phases themselves,
    // and counting them as controller sign flips would trip the
    // oscillation backoff on exactly the tenants that behave.
    i32 predictive = 0;
    if (guardian != nullptr) {
        predictive = guardian->predictiveStep(region, broker);
        if (predictive > 0)
            granted_ += static_cast<u32>(predictive);
        else if (predictive < 0)
            withdrawn_ += static_cast<u32>(-predictive);
        out.delta += predictive;
    }

    if (region.intervalAccesses() == 0)
        return out; // idle partition: nothing to learn from
    if (region.intervalAccesses() < params_.minIntervalSample)
        return out; // too few samples: keep accumulating the interval

    ++runs_;
    out.evaluated = true;
    const double mr = region.intervalMissRate();
    out.missRate = mr;

    // Re-convergence bookkeeping: a region recovering from a fault burst
    // counts resize epochs until it is back within its miss-rate goal.
    if (region.recovering) {
        ++region.recoveryEpochs;
        if (mr <= goal) {
            region.recovering = false;
            region.lastRecoveryEpochs = region.recoveryEpochs;
        }
    }

    if (region.maxAllocation == 0)
        region.maxAllocation = params_.maxAllocationChunk;

    if (region.lastMissRate > 1.0) {
        // First evaluation: the interval is dominated by compulsory
        // (cold) misses, which say nothing about the partition's steady
        // state.  Observe only; decisions start next cycle.
        region.lastMissRate = mr;
        region.closeInterval();
        return out;
    }

    // Guardian pre-decision gate: hold the epoch (hysteresis dead-band,
    // cooldown, flip-guard, pool pressure) or steer Algorithm 1 toward
    // the degraded goal of an infeasible region.  A held epoch still
    // closes the interval and updates lastMissRate so the next decision
    // compares against fresh history.
    const double configured_goal = goal;
    if (guardian != nullptr) {
        double effective = goal;
        if (guardian->gateHold(region, mr, goal, &effective)) {
            guardian->afterDecision(region, out.delta - predictive, mr,
                                    configured_goal);
            region.lastMissRate = mr;
            region.closeInterval();
            return out;
        }
        goal = effective;
    }

    // Thrash detection is cold-miss compensated: compulsory fills into
    // empty slots (region still warming, or freshly grown) do not count.
    // A single noisy interval must not cap a partition, so the clause
    // fires only on the second consecutive thrashing interval.
    const double replacement_rate = region.intervalReplacementRate();
    if (replacement_rate > kThrashThreshold)
        ++region.thrashStreak;
    else
        region.thrashStreak = 0;

    if (region.thrashStreak >= 2) {
        // Thrashing: growth does not help a partition missing more than
        // half its accesses (working set far beyond reach), so the
        // partition is resized *to* the allocation cap (maxAllocation),
        // freeing molecules for applications that can convert them into
        // hits.  Below the cap it may still grow toward it — but not
        // while the pool is under pressure (the last grant fell short),
        // so a hopeless application cannot churn a scarce pool.
        if (region.size() > region.maxAllocation) {
            const u32 got =
                broker.withdraw(region, region.size() - region.maxAllocation);
            withdrawn_ += got;
            out.delta -= static_cast<i32>(got);
        } else if (region.size() < region.maxAllocation &&
                   !region.lastGrantShort) {
            const u32 want = region.maxAllocation - region.size();
            const u32 got = broker.grant(region, want);
            region.lastGrant = got;
            region.lastGrantShort = got < want;
            granted_ += got;
            out.delta += static_cast<i32>(got);
        }
    } else if (mr < goal) {
        // Not thrashing: the allocation cap recovers so a partition that
        // was once squeezed can grow normally again.
        region.maxAllocation = params_.maxAllocationChunk;
        // Overachieving: shrink, conservatively (sqrt of the linear
        // target keeps withdrawals slower than additions).
        const double t =
            std::sqrt(static_cast<double>(region.size()) * mr / goal);
        // The sqrt law yields zero for a region missing (almost) never,
        // which would pin an over-provisioned partition forever; release
        // at least one molecule per cycle so it drifts toward its goal.
        // lround() returns a (signed) long; t is non-negative by
        // construction, so clamp at zero before the unsigned conversion
        // instead of relying on that implicitly.
        const long rounded = std::max(0L, std::lround(t));
        u32 want = std::max<u32>(1, static_cast<u32>(rounded));
        if (region.size() > 0)
            want = std::min(want, region.size() - 1); // keep >= 1 molecule
        const u32 got = broker.withdraw(region, want);
        withdrawn_ += got;
        out.delta -= static_cast<i32>(got);
    } else if (mr < region.lastMissRate * (1.0 - kImprovementEpsilon)) {
        region.maxAllocation = params_.maxAllocationChunk;
        // Above goal but improving: linear cache-size <-> miss-rate model
        // says we need size * mr / goal molecules in total.
        const double target =
            static_cast<double>(region.size()) * mr / goal;
        u32 want = 0;
        if (target > region.size()) {
            // Subtract and clamp in double first: a pathological
            // mr/goal ratio can push ceil(target) past u32 range, and
            // the old double->u32 conversion of it was undefined there.
            const double extra = std::ceil(target) -
                                 static_cast<double>(region.size());
            const double capped = std::min(
                extra, static_cast<double>(region.maxAllocation));
            want = static_cast<u32>(capped);
        }
        const u32 got = broker.grant(region, want);
        if (want > 0) {
            region.lastGrant = got;
            region.lastGrantShort = got < want;
        }
        granted_ += got;
        out.delta += static_cast<i32>(got);
    }
    // else: above goal and not improving — growth is not paying off; hold.

    if (guardian != nullptr)
        guardian->afterDecision(region, out.delta - predictive, mr,
                                configured_goal);

    region.lastMissRate = mr;
    region.closeInterval();
    return out;
}

i32
Resizer::predictivePulse(Region &region, MoleculeBroker &rawBroker,
                         QosGuardian *guardian) const
{
    if (guardian == nullptr)
        return 0;
    GuardedBroker guarded(rawBroker, *guardian);
    const i32 delta = guardian->predictiveStep(region, guarded);
    if (delta > 0)
        granted_ += static_cast<u32>(delta);
    else if (delta < 0)
        withdrawn_ += static_cast<u32>(-delta);
    return delta;
}

Tick
Resizer::adaptPeriod(Tick period, double missRate, double goal) const
{
    Tick next;
    if (missRate < goal) {
        next = period * 2;
    } else {
        next = static_cast<Tick>(
            std::max(1.0, 0.1 * static_cast<double>(period)));
    }
    return std::clamp(next, params_.minResizePeriod,
                      params_.maxResizePeriod);
}

} // namespace molcache
