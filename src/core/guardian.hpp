/**
 * @file
 * QoS guardian — robustness layer around the paper's Algorithm 1
 * (docs/algorithm1.md, "Guardrails").
 *
 * The resizer trusts its inputs: nothing in Algorithm 1 detects an
 * infeasible miss-rate goal, bounds grant/withdraw oscillation, or stops
 * one region from starving the cluster pool.  The guardian wraps each
 * resize decision with four guards:
 *
 *  - admission control: a linear miss-vs-size response model
 *    (k ~= missRate * size, EWMA-smoothed) predicts the best achievable
 *    miss rate at cluster capacity; goals below that are flagged
 *    Infeasible and the region enters an explicit degraded mode where
 *    Algorithm 1 steers toward the achievable goal and the shortfall is
 *    reported, instead of looping hopeless grants;
 *  - stability: a hysteresis dead-band around the goal, a cooldown
 *    between opposite-direction actions, and an oscillation detector
 *    that counts delta sign flips over a sliding window — tripping it
 *    widens the dead-band and backs off the resize period;
 *  - fairness: per-region capacity floors (withdrawals are clamped at
 *    the floor, lost capacity is re-granted) and a global pool-pressure
 *    signal that pauses growth of regions already at their fair share;
 *  - convergence watchdog: counts evaluated epochs above goal and
 *    surfaces regions stuck past the budget.
 *
 * On top of the reactive guards sits an opt-in *predictive mode*
 * (params.guardian.predictive, docs/algorithm1.md "Predictive mode &
 * hint trust"): applications may announce upcoming phase shifts through
 * the PhaseHint side-band channel, and the guardian pre-grants /
 * pre-withdraws capacity ahead of the shift instead of waiting for the
 * misses to show up.  Hints are untrusted input — each one is scored
 * after the fact against the observed miss response, a per-region trust
 * EWMA decays when promises diverge from reality, and a region whose
 * trust falls below threshold is quarantined back to pure reactive
 * control (with a probation path to re-earn trust).  Every predictive
 * action runs through the same floor / fair-share / oscillation guards
 * as the reactive path.
 *
 * The guardian is opt-in (params.guardian.enabled, default off).  A
 * disabled guardian is a null pointer through the whole control plane,
 * leaving the resizer byte-identical to the unguarded build; predictive
 * mode off leaves a guardian-on run byte-identical to reactive-only
 * control.
 */

#ifndef MOLCACHE_CORE_GUARDIAN_HPP
#define MOLCACHE_CORE_GUARDIAN_HPP

#include <vector>

#include "core/guardian_stats.hpp"
#include "core/params.hpp"
#include "core/region.hpp"
#include "mem/phase_hint.hpp"

namespace molcache {

class MoleculeBroker;

/** @{ Reactive guard thresholds (docs/algorithm1.md, "Guardrails"). */
/** Relative dead-band around the goal: a decision is held while
 * goal*(1-h) <= missRate <= goal*(1+h); widened under oscillation. */
inline constexpr double kGuardianHysteresis = 0.10;
/** Epochs an action blocks the opposite-direction action (the
 * flip-guard), and the pause imposed after an oscillation event. */
inline constexpr u32 kGuardianCooldownEpochs = 2;
/** Sliding-window length, in evaluated resize epochs, of the delta
 * sign-flip oscillation detector. */
inline constexpr u32 kGuardianOscillationWindow = 8;
/** Sign flips per window that count as control-plane thrashing. */
inline constexpr u32 kGuardianMaxSignFlips = 2;
/** Evaluated epochs above goal before a region is flagged stuck. */
inline constexpr u32 kGuardianWatchdogEpochs = 32;
/** Consecutive infeasible-looking epochs before the admission
 * controller degrades the goal. */
inline constexpr u32 kGuardianFeasibilityEpochs = 4;
/** Pool-pressure EWMA above which regions at or past their fair share
 * stop growing (starvation guard). */
inline constexpr double kGuardianPressureThreshold = 0.75;
/** @} */

/** @{ Predictive-mode hint trust (docs/algorithm1.md, "Predictive mode
 * & hint trust"). */
/** Hints below this confidence are dropped at the door. */
inline constexpr double kHintMinConfidence = 0.25;
/** Largest pre-grant/pre-withdraw in one predictive action, molecules.
 * Deliberately above maxAllocationChunk: the whole point of a trusted
 * hint is to move further in one step than a reactive epoch would
 * dare. */
inline constexpr u32 kHintMaxActionMolecules = 64;
/** Trust a region starts with — deliberately midway, so a new tenant
 * must earn headroom before one bad hint quarantines it. */
inline constexpr double kHintInitialTrust = 0.5;
/** Trust required before a hint moves capacity.  Sits above
 * kHintInitialTrust, so a brand-new tenant's first forecast is scored
 * against reality but acts on nothing: trust is earned by a truthful
 * hint before the guardian spends molecules on one, and a tenant that
 * opens with a lie never gets to churn the pool. */
inline constexpr double kHintActAbove = 0.55;
/** EWMA step per scored hint (scaled by the hint's confidence):
 * trust := (1-w)*trust + w*score. */
inline constexpr double kHintTrustWeight = 0.45;
/** Trust below this quarantines the region back to pure reactive
 * control; its hints are still scored so it can re-earn trust. */
inline constexpr double kHintQuarantineBelow = 0.30;
/** Trust must climb back above this (hysteresis gap vs the quarantine
 * threshold, mirroring the dead-band) to leave quarantine... */
inline constexpr double kHintRestoreAbove = 0.65;
/** ...and the region must have sat out at least this many evaluated
 * epochs (probation, mirroring the oscillation cooldown). */
inline constexpr u32 kHintProbationEpochs = 4;
/** @} */

class QosGuardian
{
  public:
    explicit QosGuardian(const MolecularCacheParams &params);

    /**
     * Re-grant capacity up to the region's floor (after fault
     * decommissioning or an external squeeze).  Runs ahead of the
     * Algorithm-1 decision, is retried every cycle, and keeps working
     * even after the resizer's own pendingReacquire path has given up
     * on an exhausted pool.  @return molecules granted.
     */
    u32 restoreFloor(Region &region, MoleculeBroker &broker);

    /**
     * Pre-decision gate.  @return true when this epoch's decision
     * should be held (dead-band, cooldown, flip-guard or pool
     * pressure); otherwise false, with @p effectiveGoal set to the goal
     * Algorithm 1 should steer toward (the configured goal, or the
     * achievable substitute while the verdict is Infeasible).
     */
    bool gateHold(const Region &region, double missRate, double goal,
                  double *effectiveGoal);

    /**
     * Clamp a withdrawal so the region never drops below its capacity
     * floor; clipped withdrawals count as floor hits.
     */
    u32 clampWithdraw(const Region &region, u32 count);

    /** Record a grant outcome (pool-pressure EWMA). */
    void noteGrant(Asid asid, u32 want, u32 got);

    /**
     * Per-access QoS accounting: time-outside-goal is classified over
     * fixed windows of nominal-resize-period length, NOT over the
     * adaptive control intervals — the adaptive period stretches and
     * shrinks with workload phase (and with predictive mode's extra
     * wakeups), so interval-based classification would measure the
     * control loop's cadence instead of the application's QoS.
     */
    void noteAccess(const Region &region, bool hit)
    {
        RegState &s = stateFor(region.asid());
        ++s.qosWindowAccesses;
        if (!hit)
            ++s.qosWindowMisses;
        if (s.qosWindowAccesses >= static_cast<u64>(nominalResizePeriod_))
            rollQosWindow(s, region.resizeGoal);
    }

    /**
     * Post-decision bookkeeping for one evaluated epoch: sign-flip
     * window, oscillation backoff, feasibility estimate and watchdog.
     * @param delta this epoch's net molecule delta
     * @param goal  the region's *configured* goal (not the degraded one)
     */
    void afterDecision(const Region &region, i32 delta, double missRate,
                       double goal);

    /**
     * Apply the region's oscillation backoff to an adapted resize
     * period (PerAppAdaptive scheme), clamped to the configured period
     * bounds.
     */
    Tick scaledPeriod(Asid asid, Tick period) const;

    /** Predictive mode configured on (hints are worth delivering). */
    bool predictiveEnabled() const { return predictive_; }

    /**
     * Ingest one phase hint for @p region.  Low-confidence hints are
     * rejected; everything else arms the region's pending-hint slot (a
     * newer forecast finalizes the score of an older one first) —
     * quarantined and not-yet-trusted regions arm too, but only for
     * scoring, never for action, which is how they earn (back) trust.
     * No-op while predictive mode is off.  @return true when the hint
     * was armed *and* is eligible to act (the caller should pull the
     * next resize wakeup forward so the hint gets a pre-shift wakeup);
     * scored-only hints return false so untrusted tenants cannot
     * perturb the reactive schedule.
     */
    bool acceptHint(const PhaseHint &hint, const Region &region);

    /**
     * Predictive pre-provisioning, run once per resize wakeup ahead of
     * the Algorithm-1 decision.  Acts when the armed hint's shift lands
     * before the region's next wakeup: grows toward / shrinks toward
     * the promised footprint, bounded by kHintMaxActionMolecules, the
     * capacity floor and the fair-share guard, and skipped outright
     * during an oscillation cooldown or quarantine.  @p broker should
     * be the guarded broker so floor clamps and pool pressure apply.
     * @return net molecule delta (0 = no action this wakeup).
     */
    i32 predictiveStep(Region &region, MoleculeBroker &broker);

    double poolPressure() const { return pressure_; }

    /** Telemetry slice for @p asid (zero-initialized when unseen). */
    GuardianAppTelemetry telemetry(Asid asid) const;
    /** Whole-cache aggregate over every region seen. */
    GuardianSummary summary() const;

  private:
    struct RegState
    {
        bool active = false;
        // Stability: sliding window of delta signs.
        std::vector<i8> window;
        u32 windowPos = 0;
        u32 windowFill = 0;
        i8 lastSign = 0;
        u32 epochsSinceAction = 0;
        u32 cooldownLeft = 0;
        u32 calmEpochs = 0;
        double bandScale = 1.0;
        double periodScale = 1.0;
        u32 oscillationEvents = 0;
        u32 maxSignFlips = 0;
        // Fairness.
        u64 floorHits = 0;
        u64 floorRestoreGrants = 0;
        u64 holdEpochs = 0;
        // Admission control: EWMA of k = missRate * size.
        double kEwma = 0.0;
        bool hasK = false;
        u32 infeasibleStreak = 0;
        FeasibilityVerdict verdict = FeasibilityVerdict::Unknown;
        double degradedGoal = 0.0;
        double shortfall = 0.0;
        // Watchdog.
        u32 epochsAboveGoal = 0;
        u32 lastEpochsToGoal = 0;
        u32 maxEpochsToGoal = 0;
        // Time outside the QoS goal (all guardian-on runs), classified
        // over fixed nominal-period access windows.
        u64 epochsOutsideGoal = 0;
        u64 accessesOutsideGoal = 0;
        u64 qosWindowAccesses = 0;
        u64 qosWindowMisses = 0;
        // Predictive mode: hint counters + trust state machine.
        u64 hintsSeen = 0;
        u64 hintsHonored = 0;
        u64 hintsRejected = 0;
        u64 preGrantMolecules = 0;
        u64 preWithdrawMolecules = 0;
        double trust = 0.0;
        bool quarantined = false;
        u32 quarantineEvents = 0;
        u32 quarantineEpochs = 0;
        // The armed (not yet scored) hint, at most one per region.
        bool hintArmed = false;
        bool hintActed = false;
        u64 hintDue = 0;            // region-access tick of the shift
        u32 hintTargetMolecules = 0;
        double hintConfidence = 0.0;
        i8 hintDirection = 0;       // promised grow(+1)/shrink(-1)/hold
        double hintMissBaseline = 0.0;
        bool hintBaselineKnown = false;
        // Post-shift evidence: misses/accesses accumulated over
        // evaluated intervals lying entirely past hintDue.  Averaging
        // across several intervals keeps the one-off refill transient of
        // a phase entry from deciding the verdict alone.
        double hintPostMisses = 0.0;
        u64 hintPostAccesses = 0;
        u32 hintPostIntervals = 0;
    };

    /** Promised-vs-size slack and observed-move margin for scoring. */
    static constexpr u32 kHintSizeSlack = 1;
    static constexpr double kHintMissMargin = 0.02;
    /** Post-shift intervals accumulated before a hint's score is
     * finalized (fewer are accepted when a newer hint supersedes it). */
    static constexpr u32 kHintScoreIntervals = 4;

    RegState &stateFor(Asid asid);
    const RegState *findState(Asid asid) const;
    u32 countSignFlips(const RegState &s) const;
    u32 activeRegions() const;
    /** Score a matured hint against the observed miss response and run
     * the trust state machine (quarantine / probation / restore). */
    void scoreHint(RegState &s, double missRate, double goal);
    /** Finalize an armed hint early (superseded by a newer forecast):
     * scored on whatever post-shift evidence accumulated, or counted
     * rejected when none did. */
    void finalizeHint(RegState &s, double goal);
    /** Close one fixed QoS window: classify it against the goal band
     * and fold it into the outside-goal counters. */
    void rollQosWindow(RegState &s, double goal);

    /** Predictive mode (GuardianParams::predictive). */
    bool predictive_;
    /** Molecules one region could reach at most (its cluster's total). */
    u32 clusterCapacity_;
    u64 moleculeSizeBytes_;
    Tick nominalResizePeriod_;
    Tick minResizePeriod_;
    Tick maxResizePeriod_;
    // Dense per-ASID state; grown on first contact, never on the access
    // hot path (the guardian only runs at resize epochs).
    std::vector<RegState> states_;
    double pressure_ = 0.0;
};

} // namespace molcache

#endif // MOLCACHE_CORE_GUARDIAN_HPP
