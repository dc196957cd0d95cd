#include "core/guardian.hpp"

#include <algorithm>
#include <cmath>

#include "contract/contract.hpp"
#include "core/resizer.hpp"

namespace molcache {

namespace {

/** Dead-band widening / period backoff caps: bounded so a once-noisy
 * region can always earn its way back to normal responsiveness. */
constexpr double kMaxBandScale = 8.0;
constexpr double kMaxPeriodScale = 16.0;

/** EWMA weights: the feasibility model favours history (miss-vs-size
 * responses are noisy interval to interval); the pressure signal
 * favours recency (pool exhaustion must register within a few grants). */
constexpr double kFeasibilityKeep = 0.7;
constexpr double kPressureKeep = 0.8;

} // namespace

const char *
feasibilityVerdictName(FeasibilityVerdict v)
{
    switch (v) {
      case FeasibilityVerdict::Unknown:
        return "unknown";
      case FeasibilityVerdict::Feasible:
        return "feasible";
      case FeasibilityVerdict::Infeasible:
        return "infeasible";
    }
    return "unknown";
}

QosGuardian::QosGuardian(const MolecularCacheParams &params)
    : predictive_(params.guardian.predictive),
      // Degenerate geometries must not poison the feasibility division
      // or the fair-share quotient; one molecule is the honest minimum.
      clusterCapacity_(std::max<u32>(
          1, params.tilesPerCluster * params.moleculesPerTile)),
      moleculeSizeBytes_(std::max<u64>(1, params.moleculeSize.value())),
      nominalResizePeriod_(std::max<Tick>(1, params.resizePeriod)),
      minResizePeriod_(params.minResizePeriod),
      maxResizePeriod_(params.maxResizePeriod)
{
    MOLCACHE_EXPECT(params.guardian.enabled,
                    "guardian constructed while disabled in params");
}

QosGuardian::RegState &
QosGuardian::stateFor(Asid asid)
{
    if (states_.size() <= asid.value())
        states_.resize(asid.value() + 1u);
    RegState &s = states_[asid.value()];
    if (!s.active) {
        s.active = true;
        s.window.assign(kGuardianOscillationWindow, 0);
        s.trust = kHintInitialTrust;
    }
    return s;
}

const QosGuardian::RegState *
QosGuardian::findState(Asid asid) const
{
    if (states_.size() <= asid.value() || !states_[asid.value()].active)
        return nullptr;
    return &states_[asid.value()];
}

u32
QosGuardian::activeRegions() const
{
    u32 n = 0;
    for (const RegState &s : states_)
        if (s.active)
            ++n;
    return n;
}

u32
QosGuardian::restoreFloor(Region &region, MoleculeBroker &broker)
{
    const u32 floor = region.capacityFloor;
    if (floor == 0 || region.size() >= floor)
        return 0;
    const u32 want = floor - region.size();
    const u32 got = broker.grant(region, want);
    RegState &s = stateFor(region.asid());
    s.floorRestoreGrants += got;
    noteGrant(region.asid(), want, got);
    return got;
}

bool
QosGuardian::gateHold(const Region &region, double missRate, double goal,
                      double *effectiveGoal)
{
    RegState &s = stateFor(region.asid());

    double eff = goal;
    if (s.verdict == FeasibilityVerdict::Infeasible)
        eff = std::max(goal, s.degradedGoal);
    *effectiveGoal = eff;

    // Oscillation backoff pause: no decisions at all for a few epochs.
    if (s.cooldownLeft > 0) {
        --s.cooldownLeft;
        ++s.holdEpochs;
        return true;
    }

    // Hysteresis dead-band, widened while the region has been noisy.
    const double band = kGuardianHysteresis * s.bandScale;
    const double lo = eff * (1.0 - band);
    const double hi = eff * (1.0 + band);
    if (missRate >= lo && missRate <= hi) {
        ++s.holdEpochs;
        return true;
    }

    // Flip-guard: an action may not be reversed within the cooldown.
    const bool wants_shrink = missRate < lo;
    const bool wants_grow = missRate > hi;
    if (wants_shrink && s.lastSign > 0 &&
        s.epochsSinceAction < kGuardianCooldownEpochs) {
        ++s.holdEpochs;
        return true;
    }
    if (wants_grow && s.lastSign < 0 &&
        s.epochsSinceAction < kGuardianCooldownEpochs) {
        ++s.holdEpochs;
        return true;
    }

    // Starvation guard: while the pool is under pressure, a region at
    // or past its fair share of the cluster must not inflate further.
    if (wants_grow && pressure_ > kGuardianPressureThreshold) {
        const u32 share = clusterCapacity_ / std::max<u32>(1,
                                                           activeRegions());
        if (region.size() >= share) {
            ++s.holdEpochs;
            return true;
        }
    }
    return false;
}

u32
QosGuardian::clampWithdraw(const Region &region, u32 count)
{
    const u32 floor = region.capacityFloor;
    if (floor == 0 || count == 0)
        return count;
    const u32 size = region.size();
    if (size <= floor) {
        ++stateFor(region.asid()).floorHits;
        return 0;
    }
    const u32 room = size - floor;
    if (count > room) {
        ++stateFor(region.asid()).floorHits;
        return room;
    }
    return count;
}

void
QosGuardian::noteGrant(Asid asid, u32 want, u32 got)
{
    (void)asid;
    if (want == 0)
        return;
    const double shortfall =
        static_cast<double>(want - std::min(want, got)) /
        static_cast<double>(want);
    pressure_ = kPressureKeep * pressure_ +
                (1.0 - kPressureKeep) * shortfall;
}

u32
QosGuardian::countSignFlips(const RegState &s) const
{
    // Flips between consecutive *actions* inside the window; held or
    // zero-delta epochs in between do not reset the direction.
    u32 flips = 0;
    i8 prev = 0;
    const u32 n = std::min<u32>(s.windowFill,
                                static_cast<u32>(s.window.size()));
    const u32 len = static_cast<u32>(s.window.size());
    for (u32 i = 0; i < n; ++i) {
        const u32 idx = (s.windowPos + len - n + i) % len;
        const i8 sign = s.window[idx];
        if (sign == 0)
            continue;
        if (prev != 0 && sign != prev)
            ++flips;
        prev = sign;
    }
    return flips;
}

void
QosGuardian::afterDecision(const Region &region, i32 delta, double missRate,
                           double goal)
{
    RegState &s = stateFor(region.asid());
    ++s.epochsSinceAction;

    // --- Stability: sliding sign window + oscillation backoff. --------
    const i8 sign = delta > 0 ? i8{1} : delta < 0 ? i8{-1} : i8{0};
    if (sign != 0) {
        s.lastSign = sign;
        s.epochsSinceAction = 0;
    }
    s.window[s.windowPos] = sign;
    s.windowPos = (s.windowPos + 1) % static_cast<u32>(s.window.size());
    if (s.windowFill < s.window.size())
        ++s.windowFill;

    const u32 flips = countSignFlips(s);
    s.maxSignFlips = std::max(s.maxSignFlips, flips);
    if (flips >= kGuardianMaxSignFlips) {
        // The region is fighting the controller: widen the dead-band,
        // slow the control loop down and pause decisions outright; the
        // window restarts so one burst counts as one event.
        ++s.oscillationEvents;
        s.bandScale = std::min(s.bandScale * 2.0, kMaxBandScale);
        s.periodScale = std::min(s.periodScale * 2.0, kMaxPeriodScale);
        s.cooldownLeft = kGuardianCooldownEpochs;
        std::fill(s.window.begin(), s.window.end(), i8{0});
        s.windowFill = 0;
        s.calmEpochs = 0;
    } else if (s.bandScale > 1.0 || s.periodScale > 1.0) {
        // Earn responsiveness back: one quiet window halves the backoff.
        if (++s.calmEpochs >= kGuardianOscillationWindow) {
            s.bandScale = std::max(1.0, s.bandScale / 2.0);
            s.periodScale = std::max(1.0, s.periodScale / 2.0);
            s.calmEpochs = 0;
        }
    }

    // --- Admission control: linear miss-vs-size response model. -------
    // missRate ~= k / size => the best the region can do at cluster
    // capacity is k / clusterCapacity.  A goal below that is hopeless no
    // matter how many molecules Algorithm 1 churns through.
    const double hi = goal * (1.0 + kGuardianHysteresis);
    if (region.size() > 0) {
        const double k = missRate * static_cast<double>(region.size());
        s.kEwma = s.hasK ? kFeasibilityKeep * s.kEwma +
                               (1.0 - kFeasibilityKeep) * k
                         : k;
        s.hasK = true;
    }
    const double predicted =
        s.hasK ? s.kEwma / static_cast<double>(clusterCapacity_) : 0.0;
    if (missRate <= hi) {
        s.verdict = FeasibilityVerdict::Feasible;
        s.infeasibleStreak = 0;
        s.degradedGoal = 0.0;
        s.shortfall = 0.0;
    } else if (s.hasK && predicted > hi) {
        if (++s.infeasibleStreak >= kGuardianFeasibilityEpochs) {
            s.verdict = FeasibilityVerdict::Infeasible;
            s.degradedGoal = std::min(1.0, std::max(goal, predicted));
            s.shortfall = s.degradedGoal - goal;
        }
    } else {
        s.infeasibleStreak = 0;
        if (s.verdict == FeasibilityVerdict::Infeasible) {
            // The response model says capacity can reach the goal again
            // (e.g. the working set shrank): leave degraded mode and let
            // the watchdog time the re-convergence.
            s.verdict = FeasibilityVerdict::Unknown;
            s.degradedGoal = 0.0;
            s.shortfall = 0.0;
        }
    }

    // --- Convergence watchdog (always against the configured goal). ---
    if (missRate > hi) {
        ++s.epochsAboveGoal;
    } else {
        if (s.epochsAboveGoal > 0) {
            s.lastEpochsToGoal = s.epochsAboveGoal;
            s.maxEpochsToGoal =
                std::max(s.maxEpochsToGoal, s.epochsAboveGoal);
        }
        s.epochsAboveGoal = 0;
    }

    // --- Predictive mode: accumulate post-shift evidence for the armed
    // hint.  Only intervals lying *entirely* past the promised shift
    // count (a lying hint matches the departing phase by construction,
    // so a straddling interval would acquit exactly the hints that
    // deserve to fail), and the verdict averages several of them so the
    // one-off refill transient of a phase entry — misses spike for an
    // interval no matter what was promised — cannot decide it alone. ---
    if (s.hintArmed &&
        region.accesses() >= s.hintDue + region.intervalAccesses()) {
        s.hintPostMisses +=
            missRate * static_cast<double>(region.intervalAccesses());
        s.hintPostAccesses += region.intervalAccesses();
        if (++s.hintPostIntervals >= kHintScoreIntervals)
            scoreHint(s,
                      s.hintPostMisses /
                          static_cast<double>(s.hintPostAccesses),
                      goal);
    }
    if (s.quarantined)
        ++s.quarantineEpochs;
}

void
QosGuardian::scoreHint(RegState &s, double missRate, double goal)
{
    s.hintArmed = false;
    const double hi = goal * (1.0 + kGuardianHysteresis);
    const double base = s.hintBaselineKnown ? s.hintMissBaseline : goal;
    bool truthful;
    if (s.hintDirection > 0) {
        // Promised growth: the misses must have materialized — a clear
        // rise over the pre-shift baseline, or still above the goal
        // band (the capacity was genuinely needed).
        truthful = missRate >= base + kHintMissMargin || missRate > hi;
    } else if (s.hintDirection < 0) {
        // Promised shrink: the load must actually have eased.
        truthful = missRate <= base - kHintMissMargin || missRate <= hi;
    } else {
        // Promised steady state: staying inside the band is honest.
        truthful = missRate <= hi;
    }
    const double w = kHintTrustWeight * std::clamp(s.hintConfidence, 0.0, 1.0);
    s.trust = (1.0 - w) * s.trust + w * (truthful ? 1.0 : 0.0);
    if (!s.quarantined && s.trust < kHintQuarantineBelow) {
        s.quarantined = true;
        ++s.quarantineEvents;
        s.quarantineEpochs = 0;
    } else if (s.quarantined && s.trust > kHintRestoreAbove &&
               s.quarantineEpochs >= kHintProbationEpochs) {
        // Probation served and trust re-earned (hysteresis gap above
        // the quarantine threshold): back to predictive service.
        s.quarantined = false;
    }
}

void
QosGuardian::rollQosWindow(RegState &s, double goal)
{
    // The base hysteresis band, never the oscillation-widened one: the
    // metric must not soften because the control loop got noisy.
    const double hi = goal * (1.0 + kGuardianHysteresis);
    const double missRate =
        static_cast<double>(s.qosWindowMisses) /
        static_cast<double>(s.qosWindowAccesses);
    if (missRate > hi) {
        ++s.epochsOutsideGoal;
        s.accessesOutsideGoal += s.qosWindowAccesses;
    }
    s.qosWindowAccesses = 0;
    s.qosWindowMisses = 0;
}

void
QosGuardian::finalizeHint(RegState &s, double goal)
{
    if (!s.hintArmed)
        return;
    if (s.hintPostAccesses > 0) {
        // Scored on whatever post-shift evidence is in: the phases are
        // moving faster than the full accumulation window, and waiting
        // for a window that will never fill would let every hint —
        // honest or lying — expire unjudged.
        scoreHint(s,
                  s.hintPostMisses /
                      static_cast<double>(s.hintPostAccesses),
                  goal);
    } else {
        // Not one clean post-shift interval was observed (the hint
        // arrived and was replaced within a single control period):
        // unjudgeable, counted rejected.
        s.hintArmed = false;
        ++s.hintsRejected;
    }
}

bool
QosGuardian::acceptHint(const PhaseHint &hint, const Region &region)
{
    if (!predictive_)
        return false;
    RegState &s = stateFor(region.asid());
    ++s.hintsSeen;
    finalizeHint(s, region.resizeGoal);
    const double conf = std::clamp(hint.confidence, 0.0, 1.0);
    if (conf < kHintMinConfidence) {
        ++s.hintsRejected;
        return false;
    }
    const u64 mols =
        (hint.predictedFootprintBytes + moleculeSizeBytes_ - 1) /
        moleculeSizeBytes_;
    const u32 target =
        static_cast<u32>(std::clamp<u64>(mols, 1, clusterCapacity_));
    const u32 size = region.size();
    s.hintArmed = true;
    s.hintActed = false;
    s.hintDue = region.accesses() + hint.leadAccesses;
    s.hintTargetMolecules = target;
    s.hintConfidence = conf;
    s.hintDirection = target > size + kHintSizeSlack    ? i8{1}
                      : target + kHintSizeSlack < size  ? i8{-1}
                                                        : i8{0};
    s.hintBaselineKnown = region.lastMissRate <= 1.0;
    s.hintMissBaseline = s.hintBaselineKnown ? region.lastMissRate : 0.0;
    s.hintPostMisses = 0.0;
    s.hintPostAccesses = 0;
    s.hintPostIntervals = 0;
    if (s.quarantined || s.trust < kHintActAbove) {
        // Quarantined and not-yet-proven tenants keep getting scored
        // (the probation / trust-earning path) but their hints buy no
        // capacity movement — and no schedule movement either: pulling
        // the wakeup forward for a hint that cannot act would let an
        // untrusted tenant perturb the reactive cadence for free.
        ++s.hintsRejected;
        return false;
    }
    return true;
}

i32
QosGuardian::predictiveStep(Region &region, MoleculeBroker &broker)
{
    if (!predictive_)
        return 0;
    RegState &s = stateFor(region.asid());
    if (!s.hintArmed || s.hintActed || s.quarantined ||
        s.trust < kHintActAbove)
        return 0;
    // Oscillation pause: a thrashing control loop does not get to pile
    // predictive actions on top of the backoff.
    if (s.cooldownLeft > 0)
        return 0;
    const u64 now = region.accesses();
    const Tick period = region.resizePeriod > 0 ? region.resizePeriod
                                                : nominalResizePeriod_;
    const u32 size = region.size();
    const u32 target = s.hintTargetMolecules;
    const bool grows = target > size;

    // Timing is asymmetric.  A pre-grant lands on the last wakeup before
    // the shift so the capacity is there when the new phase arrives; the
    // look-ahead is bounded by the nominal period so a backed-off
    // control loop cannot pull it absurdly early.  A pre-withdraw waits
    // for the shift itself — the departing phase is still using those
    // molecules, and taking them early converts warm hits into misses.
    if (grows) {
        if (now + std::min(period, nominalResizePeriod_) < s.hintDue)
            return 0; // too early: another wakeup comes before the shift
        if (now > s.hintDue + period) {
            // Expired unacted (a long cooldown, or the hint arrived
            // late): reactive control has taken over; the hint stays
            // armed for scoring only.
            s.hintActed = true;
            ++s.hintsRejected;
            return 0;
        }
    } else if (now < s.hintDue) {
        return 0; // shrink waits for the promised shift to happen
    }

    s.hintActed = true;
    i32 delta = 0;
    if (grows) {
        u32 want = std::min(target - size, kHintMaxActionMolecules);
        // Fair-share guard, mirroring gateHold's starvation clause: a
        // pressured pool never pre-funds a region past its share.
        if (pressure_ > kGuardianPressureThreshold) {
            const u32 share =
                clusterCapacity_ / std::max<u32>(1, activeRegions());
            if (size >= share) {
                ++s.hintsRejected;
                return 0;
            }
            want = std::min(want, share - size);
        }
        const u32 got = broker.grant(region, want);
        s.preGrantMolecules += got;
        delta = static_cast<i32>(got);
    } else if (target < size && pressure_ > kGuardianPressureThreshold) {
        // Pre-withdraw frees capacity only when someone is actually
        // starving for it; with an uncontended pool the molecules stay
        // where they are (warm) and reactive control reclaims them at
        // its own pace.
        const u32 want = std::min(size - target, kHintMaxActionMolecules);
        const u32 got = broker.withdraw(region, want);
        s.preWithdrawMolecules += got;
        delta = -static_cast<i32>(got);
    }
    ++s.hintsHonored;
    if (delta != 0) {
        // A predictive action is an action for the reactive flip-guard
        // (it must not be reversed within the cooldown) — but it never
        // enters the oscillation sign window: an honest phase-alternating
        // tenant is moving *with* its phases, not fighting the
        // controller, and must not be punished with a backoff for it.
        s.lastSign = delta > 0 ? i8{1} : i8{-1};
        s.epochsSinceAction = 0;
    }
    return delta;
}

Tick
QosGuardian::scaledPeriod(Asid asid, Tick period) const
{
    const RegState *s = findState(asid);
    if (s == nullptr || s->periodScale <= 1.0)
        return period;
    const double scaled = static_cast<double>(period) * s->periodScale;
    const double capped =
        std::min(scaled, static_cast<double>(maxResizePeriod_));
    return std::clamp(static_cast<Tick>(capped), minResizePeriod_,
                      maxResizePeriod_);
}

GuardianAppTelemetry
QosGuardian::telemetry(Asid asid) const
{
    GuardianAppTelemetry out;
    const RegState *s = findState(asid);
    if (s == nullptr)
        return out;
    out.verdict = s->verdict;
    out.shortfall = s->shortfall;
    out.oscillationEvents = s->oscillationEvents;
    out.maxSignFlips = s->maxSignFlips;
    out.floorHits = s->floorHits;
    out.floorRestoreGrants = s->floorRestoreGrants;
    out.holdEpochs = s->holdEpochs;
    out.lastEpochsToGoal = s->lastEpochsToGoal;
    out.maxEpochsToGoal = s->maxEpochsToGoal;
    out.stuck = s->epochsAboveGoal >= kGuardianWatchdogEpochs &&
                s->verdict != FeasibilityVerdict::Infeasible;
    out.epochsOutsideGoal = s->epochsOutsideGoal;
    out.accessesOutsideGoal = s->accessesOutsideGoal;
    out.hintsSeen = s->hintsSeen;
    out.hintsHonored = s->hintsHonored;
    out.hintsRejected = s->hintsRejected;
    out.preGrantMolecules = s->preGrantMolecules;
    out.preWithdrawMolecules = s->preWithdrawMolecules;
    out.trust = s->trust;
    out.quarantined = s->quarantined;
    out.quarantineEvents = s->quarantineEvents;
    return out;
}

GuardianSummary
QosGuardian::summary() const
{
    GuardianSummary out;
    out.enabled = true;
    out.predictiveEnabled = predictive_;
    out.poolPressure = pressure_;
    for (u32 i = 0; i < states_.size(); ++i) {
        const RegState &s = states_[i];
        if (!s.active)
            continue;
        const GuardianAppTelemetry t = telemetry(Asid{static_cast<u16>(i)});
        out.oscillationEvents += t.oscillationEvents;
        out.floorHits += t.floorHits;
        out.floorRestoreGrants += t.floorRestoreGrants;
        out.holdEpochs += t.holdEpochs;
        if (t.verdict == FeasibilityVerdict::Infeasible)
            ++out.infeasibleRegions;
        if (t.stuck)
            ++out.stuckRegions;
        out.maxEpochsToGoal = std::max(
            out.maxEpochsToGoal, std::max(t.maxEpochsToGoal,
                                          s.epochsAboveGoal));
        out.maxShortfall = std::max(out.maxShortfall, t.shortfall);
        out.epochsOutsideGoal += t.epochsOutsideGoal;
        out.accessesOutsideGoal += t.accessesOutsideGoal;
        out.hintsSeen += t.hintsSeen;
        out.hintsHonored += t.hintsHonored;
        out.hintsRejected += t.hintsRejected;
        out.preGrantMolecules += t.preGrantMolecules;
        out.preWithdrawMolecules += t.preWithdrawMolecules;
        if (t.quarantined)
            ++out.quarantinedRegions;
        if (t.hintsSeen > 0)
            out.minTrust = std::min(out.minTrust, t.trust);
    }
    return out;
}

} // namespace molcache
