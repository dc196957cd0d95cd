/**
 * @file
 * Telemetry types of the QoS guardian (docs/algorithm1.md, "Guardrails").
 *
 * Kept separate from guardian.hpp so the sim layer (QosSummary /
 * SimResult / result_json) can carry per-region guardian telemetry
 * without pulling the control-plane implementation into every report
 * translation unit.
 */

#ifndef MOLCACHE_CORE_GUARDIAN_STATS_HPP
#define MOLCACHE_CORE_GUARDIAN_STATS_HPP

#include "util/types.hpp"

namespace molcache {

/** Admission-control verdict on a region's miss-rate goal. */
enum class FeasibilityVerdict
{
    /** Not enough evidence yet (cold region, or goal never stressed). */
    Unknown,
    /** The goal has been met, or the size<->miss model predicts it can. */
    Feasible,
    /** The goal cannot be met even at cluster capacity; the region runs
     * in degraded mode against an achievable substitute goal and the
     * shortfall is reported instead of silently churning grants. */
    Infeasible,
};

const char *feasibilityVerdictName(FeasibilityVerdict v);

/** Per-region guardian telemetry (one slice of GuardianSummary). */
struct GuardianAppTelemetry
{
    FeasibilityVerdict verdict = FeasibilityVerdict::Unknown;
    /** Degraded-mode miss-rate shortfall: achievable goal - configured
     * goal, zero while the verdict is not Infeasible. */
    double shortfall = 0.0;
    /** Sliding windows whose delta sign-flip count hit the bound. */
    u32 oscillationEvents = 0;
    /** Worst sign-flip count observed in any single window. */
    u32 maxSignFlips = 0;
    /** Withdrawals clipped (fully or partly) by the capacity floor. */
    u64 floorHits = 0;
    /** Molecules granted to lift the region back to its floor. */
    u64 floorRestoreGrants = 0;
    /** Decisions held by the dead-band, cooldown or pressure guards. */
    u64 holdEpochs = 0;
    /** Evaluated resize epochs the last above-goal excursion took to
     * come back under the goal (0 = never left / never returned). */
    u32 lastEpochsToGoal = 0;
    u32 maxEpochsToGoal = 0;
    /** Above goal for longer than the watchdog budget (and not excused
     * as Infeasible): the region is stuck and needs operator attention. */
    bool stuck = false;
    /** @{ Time spent outside the QoS goal: fixed nominal-period access
     * windows (and the references inside them) whose miss rate sat
     * above the goal's dead-band.  Fixed windows, not the adaptive
     * control intervals, so the counter is comparable across reactive
     * and predictive runs regardless of control-loop cadence. */
    u64 epochsOutsideGoal = 0;
    u64 accessesOutsideGoal = 0;
    /** @} */
    /** @{ Predictive mode (zero / kHintInitialTrust unless enabled). */
    u64 hintsSeen = 0;
    /** Hints whose pre-provisioning action was taken. */
    u64 hintsHonored = 0;
    /** Hints dropped (low confidence, quarantine, or guard-blocked). */
    u64 hintsRejected = 0;
    /** Molecules moved ahead of hinted shifts. */
    u64 preGrantMolecules = 0;
    u64 preWithdrawMolecules = 0;
    /** Hint-trust score in [0,1]. */
    double trust = 0.0;
    /** Trust fell below threshold: hints ignored, reactive-only. */
    bool quarantined = false;
    u32 quarantineEvents = 0;
    /** @} */
};

/** Whole-cache guardian aggregate carried by SimResult. */
struct GuardianSummary
{
    bool enabled = false;
    u64 oscillationEvents = 0;
    u64 floorHits = 0;
    u64 floorRestoreGrants = 0;
    u64 holdEpochs = 0;
    u32 infeasibleRegions = 0;
    u32 stuckRegions = 0;
    u32 maxEpochsToGoal = 0;
    double maxShortfall = 0.0;
    /** EWMA of the grant-shortfall fraction: 0 = every grant satisfied,
     * toward 1 = the pool is exhausted (starvation pressure). */
    double poolPressure = 0.0;
    /** @{ Time outside goal, summed over regions (see the per-app
     * telemetry for the definition). */
    u64 epochsOutsideGoal = 0;
    u64 accessesOutsideGoal = 0;
    /** @} */
    /** @{ Predictive mode aggregate (all zero while disabled). */
    bool predictiveEnabled = false;
    u64 hintsSeen = 0;
    u64 hintsHonored = 0;
    u64 hintsRejected = 0;
    u64 preGrantMolecules = 0;
    u64 preWithdrawMolecules = 0;
    u32 quarantinedRegions = 0;
    /** Lowest per-region trust (1.0 when no region was ever hinted). */
    double minTrust = 1.0;
    /** @} */
};

} // namespace molcache

#endif // MOLCACHE_CORE_GUARDIAN_STATS_HPP
