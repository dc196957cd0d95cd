/**
 * @file
 * Unit tests of the QoS guardian (core/guardian.hpp): the hysteresis
 * dead-band, flip-guard and oscillation backoff, admission control with
 * explicit degraded mode, capacity floors, pool pressure and the
 * convergence watchdog — both through the public guardian API and
 * end-to-end through Resizer::resizeRegion.
 */

#include "core/guardian.hpp"

#include <gtest/gtest.h>

#include "core/resizer.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

/** Broker over an infinite (or bounded) molecule supply for unit tests. */
class FakeBroker final : public MoleculeBroker
{
  public:
    explicit FakeBroker(u32 available = 1000000)
        : available_(available)
    {
    }

    u32
    grant(Region &region, u32 count) override
    {
        const u32 got = std::min(count, available_);
        available_ -= got;
        for (u32 i = 0; i < got; ++i) {
            region.addMolecule(next_, TileId{0}, false);
            ++next_;
        }
        return got;
    }

    u32
    withdraw(Region &region, u32 count) override
    {
        u32 got = 0;
        while (got < count && region.size() > 1) {
            region.removeMolecule(region.pickWithdrawal());
            ++available_;
            ++got;
        }
        return got;
    }

  private:
    u32 available_;
    MoleculeId next_{100};
};

/** Small geometry: 2 tiles x 8 molecules => cluster capacity 16, so the
 * feasibility model's capacity predictions are easy to hit by hand. */
MolecularCacheParams
params()
{
    MolecularCacheParams p;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.maxAllocationChunk = 8;
    p.minIntervalSample = 100;
    p.guardian.enabled = true;
    return p;
}

Region
makeRegion(u32 molecules, u32 floor = 0)
{
    Region r(Asid{1}, PlacementPolicy::Random, 1, TileId{0},
             ClusterId{0}, 8_KiB, 64);
    for (u32 m = 0; m < molecules; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, true);
    r.maxAllocation = 8;
    r.lastGrant = molecules;
    r.capacityFloor = floor;
    return r;
}

/** Drive one interval's worth of synthetic statistics into the region. */
void
feedInterval(Region &r, u32 accesses, u32 misses, u32 replacements)
{
    for (u32 i = 0; i < accesses; ++i)
        r.noteAccess(i >= misses); // first `misses` accesses miss
    for (u32 i = 0; i < replacements; ++i)
        r.noteReplacement(r.rows()[0][i % r.rows()[0].size()], 0);
}

/** First evaluation only observes; prime it so decisions flow. */
void
primeRegion(Region &r, const Resizer &resizer, FakeBroker &broker,
            QosGuardian *guardian, double mr = 0.3)
{
    feedInterval(r, 1000, static_cast<u32>(mr * 1000),
                 static_cast<u32>(mr * 1000));
    resizer.resizeRegion(r, 0.1, broker, guardian);
}

TEST(Guardian, GateHoldDeadBand)
{
    QosGuardian g(params());
    const Region r = makeRegion(4);
    double eff = 0.0;
    // Inside goal*(1 +- 0.10): hold.
    EXPECT_TRUE(g.gateHold(r, 0.105, 0.1, &eff));
    EXPECT_TRUE(g.gateHold(r, 0.095, 0.1, &eff));
    // Outside the band: pass through with the configured goal.
    EXPECT_FALSE(g.gateHold(r, 0.30, 0.1, &eff));
    EXPECT_DOUBLE_EQ(eff, 0.1);
    EXPECT_FALSE(g.gateHold(r, 0.02, 0.1, &eff));
    EXPECT_GE(g.telemetry(r.asid()).holdEpochs, 2u);
}

TEST(Guardian, HysteresisHoldThroughResizer)
{
    const MolecularCacheParams p = params();
    const Resizer resizer(p);
    QosGuardian g(p);
    FakeBroker broker;
    Region r = makeRegion(8);
    primeRegion(r, resizer, broker, &g, 0.30);
    // mr 0.105 is inside the dead-band: the epoch is held, yet the
    // interval closes and history advances (no stale-interval buildup).
    feedInterval(r, 1000, 105, 105);
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker, &g);
    EXPECT_TRUE(out.evaluated);
    EXPECT_EQ(out.delta, 0);
    EXPECT_EQ(r.size(), 8u);
    EXPECT_EQ(r.intervalAccesses(), 0u);
    EXPECT_NEAR(r.lastMissRate, 0.105, 1e-9);
    EXPECT_GE(g.telemetry(r.asid()).holdEpochs, 1u);
}

TEST(Guardian, FlipGuardBlocksImmediateReversal)
{
    QosGuardian g(params());
    const Region r = makeRegion(4);
    double eff = 0.0;
    // A grow action (delta +4) was just taken...
    g.afterDecision(r, +4, 0.30, 0.1);
    // ...so an immediate shrink (mr far below goal) is held.
    EXPECT_TRUE(g.gateHold(r, 0.02, 0.1, &eff));
    // Two quiet epochs (kGuardianCooldownEpochs) later the guard lifts.
    g.afterDecision(r, 0, 0.30, 0.1);
    g.afterDecision(r, 0, 0.30, 0.1);
    EXPECT_FALSE(g.gateHold(r, 0.02, 0.1, &eff));
    // Same-direction actions were never blocked.
    g.afterDecision(r, +4, 0.30, 0.1);
    EXPECT_FALSE(g.gateHold(r, 0.30, 0.1, &eff));
}

TEST(Guardian, OscillationTripWidensBandAndBacksOffPeriod)
{
    QosGuardian g(params());
    const Region r = makeRegion(4);
    const Asid asid = r.asid();
    EXPECT_EQ(g.scaledPeriod(asid, 25000), 25000u);

    // Alternating deltas: the second flip reaches kGuardianMaxSignFlips.
    g.afterDecision(r, +2, 0.30, 0.1);
    g.afterDecision(r, -2, 0.02, 0.1);
    g.afterDecision(r, +2, 0.30, 0.1);
    const GuardianAppTelemetry t = g.telemetry(asid);
    EXPECT_EQ(t.oscillationEvents, 1u);
    // The window restarts on the trip, so the recorded worst case stays
    // at the configured bound instead of growing without limit.
    EXPECT_EQ(t.maxSignFlips, kGuardianMaxSignFlips);
    // Period backoff doubled the resize period (capped at the max).
    EXPECT_EQ(g.scaledPeriod(asid, 25000), 50000u);
    // The trip imposes a cooldown pause: even a far-out miss rate holds.
    double eff = 0.0;
    EXPECT_TRUE(g.gateHold(r, 0.9, 0.1, &eff));

    // One full calm window halves the backoff again.
    for (u32 i = 0; i < kGuardianOscillationWindow + 2; ++i)
        g.afterDecision(r, 0, 0.105, 0.1);
    EXPECT_EQ(g.scaledPeriod(asid, 25000), 25000u);
}

TEST(Guardian, WidenedBandHoldsWhatNormalBandWouldNot)
{
    QosGuardian g(params());
    const Region r = makeRegion(4);
    double eff = 0.0;
    // mr 0.115 is outside the normal 10% band around goal 0.1.
    EXPECT_FALSE(g.gateHold(r, 0.115, 0.1, &eff));
    // Trip the oscillation detector: band scale doubles to 0.2.
    g.afterDecision(r, +2, 0.30, 0.1);
    g.afterDecision(r, -2, 0.02, 0.1);
    g.afterDecision(r, +2, 0.30, 0.1);
    // Drain the cooldown pause (kGuardianCooldownEpochs).
    EXPECT_TRUE(g.gateHold(r, 0.115, 0.1, &eff));
    EXPECT_TRUE(g.gateHold(r, 0.115, 0.1, &eff));
    // Now the hold comes from the widened dead-band [0.08, 0.12] itself.
    EXPECT_TRUE(g.gateHold(r, 0.115, 0.1, &eff));
}

TEST(Guardian, InfeasibleGoalEntersDegradedModeWithShortfall)
{
    QosGuardian g(params()); // cluster capacity 16
    const Region r = makeRegion(8);
    // k ~= 0.9 * 8 = 7.2 => predicted floor 7.2/16 = 0.45 >> goal 0.1.
    for (u32 i = 0; i < kGuardianFeasibilityEpochs; ++i)
        g.afterDecision(r, 0, 0.9, 0.1);
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_EQ(t.verdict, FeasibilityVerdict::Infeasible);
    EXPECT_NEAR(t.shortfall, 0.35, 0.02);
    // Degraded mode: the region is judged against the achievable goal,
    // so a miss rate near it is held instead of chasing more capacity.
    double eff = 0.0;
    EXPECT_TRUE(g.gateHold(r, 0.44, 0.1, &eff));
    EXPECT_FALSE(g.gateHold(r, 0.9, 0.1, &eff));
    EXPECT_NEAR(eff, 0.45, 0.02); // Algorithm 1 steers to the substitute
    // An infeasible region is excused from the watchdog.
    EXPECT_FALSE(t.stuck);
}

TEST(Guardian, InfeasibleNeedsConsecutiveEpochs)
{
    QosGuardian g(params());
    const Region r = makeRegion(8);
    for (u32 i = 0; i + 1 < kGuardianFeasibilityEpochs; ++i)
        g.afterDecision(r, 0, 0.9, 0.1);
    EXPECT_EQ(g.telemetry(r.asid()).verdict, FeasibilityVerdict::Unknown);
}

TEST(Guardian, DegradedModeExitsWhenGoalReached)
{
    QosGuardian g(params());
    const Region r = makeRegion(8);
    for (u32 i = 0; i < kGuardianFeasibilityEpochs; ++i)
        g.afterDecision(r, 0, 0.9, 0.1);
    ASSERT_EQ(g.telemetry(r.asid()).verdict,
              FeasibilityVerdict::Infeasible);
    // The working set shrank: the goal is met, degraded mode ends.
    g.afterDecision(r, 0, 0.08, 0.1);
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_EQ(t.verdict, FeasibilityVerdict::Feasible);
    EXPECT_DOUBLE_EQ(t.shortfall, 0.0);
}

TEST(Guardian, ClampWithdrawStopsAtFloor)
{
    QosGuardian g(params());
    const Region above = makeRegion(6, /*floor=*/2);
    EXPECT_EQ(g.clampWithdraw(above, 3), 3u); // room of 4: untouched
    EXPECT_EQ(g.clampWithdraw(above, 10), 4u); // clipped to the floor
    const Region at = makeRegion(2, /*floor=*/2);
    EXPECT_EQ(g.clampWithdraw(at, 1), 0u);
    EXPECT_EQ(g.telemetry(Asid{1}).floorHits, 2u);
    // No floor configured: pass-through, no accounting.
    const Region unfloored = makeRegion(2);
    EXPECT_EQ(g.clampWithdraw(unfloored, 1), 1u);
}

TEST(Guardian, RestoreFloorRegrantsLostCapacity)
{
    QosGuardian g(params());
    FakeBroker broker;
    Region r = makeRegion(1, /*floor=*/4);
    EXPECT_EQ(g.restoreFloor(r, broker), 3u);
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(g.telemetry(r.asid()).floorRestoreGrants, 3u);
    // At (or above) the floor: nothing to do.
    EXPECT_EQ(g.restoreFloor(r, broker), 0u);
}

TEST(Guardian, ResizerHonoursFloorEndToEnd)
{
    const MolecularCacheParams p = params();
    const Resizer resizer(p);
    QosGuardian g(p);
    FakeBroker broker;
    Region r = makeRegion(4, /*floor=*/4);
    primeRegion(r, resizer, broker, &g, 0.30);
    // Perfect hit rate wants a withdrawal; the floor forbids it.
    feedInterval(r, 1000, 0, 0);
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker, &g);
    EXPECT_EQ(out.delta, 0);
    EXPECT_EQ(r.size(), 4u);
    EXPECT_GE(g.telemetry(r.asid()).floorHits, 1u);
}

TEST(Guardian, WatchdogFlagsStuckAndTimesReconvergence)
{
    MolecularCacheParams p = params();
    // Default geometry => cluster capacity 256, so mr 0.3 at size 4
    // predicts ~0.005 at capacity: feasible-looking, just not converged.
    p.moleculesPerTile = 64;
    p.tilesPerCluster = 4;
    QosGuardian g(p);
    const Region r = makeRegion(4);
    for (u32 i = 0; i < kGuardianWatchdogEpochs; ++i) {
        EXPECT_FALSE(g.telemetry(r.asid()).stuck);
        g.afterDecision(r, 0, 0.30, 0.1);
    }
    EXPECT_TRUE(g.telemetry(r.asid()).stuck);
    EXPECT_EQ(g.summary().stuckRegions, 1u);
    EXPECT_GE(g.summary().maxEpochsToGoal, kGuardianWatchdogEpochs);
    // Reaching the goal clears the flag and records the time-to-goal.
    g.afterDecision(r, 0, 0.09, 0.1);
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_FALSE(t.stuck);
    EXPECT_EQ(t.lastEpochsToGoal, kGuardianWatchdogEpochs);
    EXPECT_EQ(t.maxEpochsToGoal, kGuardianWatchdogEpochs);
}

TEST(Guardian, PoolPressureHoldsGrowthAtFairShare)
{
    QosGuardian g(params()); // cluster capacity 16
    const Region big = makeRegion(16);
    // Repeated empty grants drive the pressure EWMA toward 1.
    for (u32 i = 0; i < 20; ++i)
        g.noteGrant(big.asid(), 8, 0);
    EXPECT_GT(g.poolPressure(), kGuardianPressureThreshold);
    double eff = 0.0;
    // At (or past) the fair share, growth is paused under pressure...
    EXPECT_TRUE(g.gateHold(big, 0.5, 0.1, &eff));
    // ...but shrinking is always allowed.
    EXPECT_FALSE(g.gateHold(big, 0.01, 0.1, &eff));
    // A small region may still grow toward its share.
    const Region small = makeRegion(2);
    EXPECT_FALSE(g.gateHold(small, 0.5, 0.1, &eff));
}

TEST(Guardian, ColdStartZeroWidthWindowSurvivesFirstEpoch)
{
    // The first decision lands on an empty sign window and an empty
    // feasibility history; neither may trip a verdict, so the
    // cold-start verdict stays Unknown.
    QosGuardian g(params());
    const Region r = makeRegion(4);
    g.afterDecision(r, +4, 0.30, 0.1);
    EXPECT_EQ(g.telemetry(r.asid()).verdict, FeasibilityVerdict::Unknown);

    // Same first epoch on an empty region: no size to feed the
    // miss-vs-size model, still no crash, still Unknown.
    const Region empty = makeRegion(0);
    g.afterDecision(empty, 0, 0.9, 0.1);
    EXPECT_EQ(g.telemetry(empty.asid()).verdict,
              FeasibilityVerdict::Unknown);
}

// ---------------------------------------------------------------------
// Predictive mode & hint trust (docs/algorithm1.md).
// ---------------------------------------------------------------------

MolecularCacheParams
predictiveParams()
{
    MolecularCacheParams p = params();
    p.guardian.predictive = true;
    return p;
}

PhaseHint
hint(const Region &r, u64 footprintMolecules, u64 lead = 0,
     double confidence = 0.9)
{
    PhaseHint h;
    h.asid = r.asid();
    h.leadAccesses = lead;
    h.predictedFootprintBytes = footprintMolecules * 8 * 1024;
    h.confidence = confidence;
    return h;
}

/** Feed @p intervals evaluated epochs at @p missRate so the armed hint
 * accumulates post-shift evidence and is scored. */
void
scoreArmedHint(QosGuardian &g, Region &r, double missRate,
               u32 intervals = 4)
{
    for (u32 i = 0; i < intervals; ++i) {
        feedInterval(r, 1000, static_cast<u32>(missRate * 1000), 0);
        g.afterDecision(r, 0, missRate, 0.1);
        r.closeInterval();
    }
}

/**
 * Earn action-eligible trust the way a tenant does: one truthful grow
 * hint with one interval of post-shift evidence.  Its score is
 * finalized by the caller's next acceptHint (a newer forecast
 * supersedes it), which lifts trust from kHintInitialTrust to 0.7025
 * before that hint meets the kHintActAbove gate.
 */
void
earnTrust(QosGuardian &g, Region &r)
{
    EXPECT_FALSE(g.acceptHint(hint(r, r.size() + 8), r));
    scoreArmedHint(g, r, 0.30, /*intervals=*/1);
}

TEST(Guardian, PredictiveOffIgnoresHints)
{
    QosGuardian g(params()); // predictive disabled
    const Region r = makeRegion(4);
    EXPECT_FALSE(g.acceptHint(hint(r, 12), r));
    FakeBroker broker;
    Region rw = makeRegion(4);
    EXPECT_EQ(g.predictiveStep(rw, broker), 0);
    EXPECT_EQ(g.telemetry(r.asid()).hintsSeen, 0u);
}

TEST(Guardian, LowConfidenceHintRejectedAtTheDoor)
{
    QosGuardian g(predictiveParams());
    const Region r = makeRegion(4);
    EXPECT_FALSE(g.acceptHint(hint(r, 12, 0, /*confidence=*/0.1), r));
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_EQ(t.hintsSeen, 1u);
    EXPECT_EQ(t.hintsRejected, 1u);
    EXPECT_EQ(t.hintsHonored, 0u);
}

TEST(Guardian, UnprovenTenantScoresButNeverActs)
{
    // kHintInitialTrust (0.5) sits below kHintActAbove (0.55): the first
    // forecast is observation-only — no wakeup pull (acceptHint false),
    // no capacity movement — but it IS scored, and a truthful one earns
    // the trust that lets the next hint act.
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    EXPECT_FALSE(g.acceptHint(hint(r, 12), r));
    FakeBroker broker;
    EXPECT_EQ(g.predictiveStep(r, broker), 0);
    EXPECT_EQ(r.size(), 4u);
    // The promised misses materialize: the grow claim was truthful.
    scoreArmedHint(g, r, 0.30);
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_GT(t.trust, 0.55);
    EXPECT_FALSE(t.quarantined);
    EXPECT_EQ(t.hintsHonored, 0u);
    // Proven: the next hint is action-eligible.
    EXPECT_TRUE(g.acceptHint(hint(r, 12), r));
}

TEST(Guardian, TrustedGrowHintPreGrantsBeforeTheShift)
{
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    earnTrust(g, r);
    FakeBroker broker;
    // Shift due within one nominal period: the pre-grant fires now.
    EXPECT_TRUE(g.acceptHint(hint(r, 12, /*lead=*/5000), r));
    const i32 delta = g.predictiveStep(r, broker);
    EXPECT_EQ(delta, 8); // target 12 - size 4
    EXPECT_EQ(r.size(), 12u);
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_EQ(t.hintsHonored, 1u);
    EXPECT_EQ(t.preGrantMolecules, 8u);
    // No double-grant: the armed hint acts exactly once.
    EXPECT_EQ(g.predictiveStep(r, broker), 0);
}

TEST(Guardian, GrowHintWaitsUntilTheLastWakeupBeforeDue)
{
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    earnTrust(g, r);
    FakeBroker broker;
    // Due two nominal periods out: acting now would be a wakeup early.
    EXPECT_TRUE(g.acceptHint(hint(r, 12, /*lead=*/50'000), r));
    EXPECT_EQ(g.predictiveStep(r, broker), 0);
    EXPECT_EQ(r.size(), 4u);
    // Advance to within one period of the shift: now it fires.
    for (u32 i = 0; i < 30'000; ++i)
        r.noteAccess(true);
    EXPECT_EQ(g.predictiveStep(r, broker), 8);
}

TEST(Guardian, PreWithdrawNeedsPoolPressureAndWaitsForDue)
{
    QosGuardian g(predictiveParams());
    Region r = makeRegion(12);
    earnTrust(g, r);
    FakeBroker broker;
    // Uncontended pool: the shrink is promised but molecules stay warm
    // where they are; reactive control reclaims them at its own pace.
    EXPECT_TRUE(g.acceptHint(hint(r, 2), r));
    EXPECT_EQ(g.predictiveStep(r, broker), 0);
    EXPECT_EQ(r.size(), 12u);

    // Under pressure the promised molecules are handed back — but only
    // once the shift is due, never while the departing phase runs.
    QosGuardian g2(predictiveParams());
    Region r2 = makeRegion(12);
    earnTrust(g2, r2);
    for (u32 i = 0; i < 20; ++i)
        g2.noteGrant(r2.asid(), 8, 0);
    EXPECT_TRUE(g2.acceptHint(hint(r2, 2, /*lead=*/4000), r2));
    EXPECT_EQ(g2.predictiveStep(r2, broker), 0); // not due yet
    for (u32 i = 0; i < 4000; ++i)
        r2.noteAccess(true);
    const i32 delta = g2.predictiveStep(r2, broker);
    EXPECT_LT(delta, 0);
    EXPECT_EQ(g2.telemetry(r2.asid()).preWithdrawMolecules,
              static_cast<u64>(-delta));
}

TEST(Guardian, OscillationCooldownBlocksPreGrantAndKeepsWideBand)
{
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    earnTrust(g, r);
    // Trip the oscillation detector: alternating-sign actions.
    g.afterDecision(r, +4, 0.30, 0.1);
    g.afterDecision(r, -4, 0.05, 0.1);
    g.afterDecision(r, +4, 0.30, 0.1);
    ASSERT_GT(g.telemetry(r.asid()).oscillationEvents, 0u);
    // An armed trusted hint does NOT act through the cooldown...
    FakeBroker broker;
    EXPECT_TRUE(g.acceptHint(hint(r, 12, 1000), r));
    EXPECT_EQ(g.predictiveStep(r, broker), 0);
    EXPECT_EQ(r.size(), 4u);
    // ...and the widened dead-band keeps holding reactive decisions the
    // normal band would have released.
    double eff = 0.0;
    EXPECT_TRUE(g.gateHold(r, 0.115, 0.1, &eff));
}

TEST(Guardian, FlipGuardNotReversedByReactiveAfterPreGrant)
{
    // A pre-grant counts as an action for the reactive flip-guard: the
    // controller cannot immediately withdraw what the hint just moved.
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    earnTrust(g, r);
    FakeBroker broker;
    EXPECT_TRUE(g.acceptHint(hint(r, 12, 1000), r));
    ASSERT_GT(g.predictiveStep(r, broker), 0);
    double eff = 0.0;
    EXPECT_TRUE(g.gateHold(r, 0.02, 0.1, &eff)); // shrink held
}

TEST(Guardian, LyingTenantQuarantinedThenRestoredOnProbation)
{
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    // A grow promise whose misses never materialize: one scored lie at
    // confidence 0.9 drops trust 0.5 -> 0.2975, under the threshold.
    EXPECT_FALSE(g.acceptHint(hint(r, 12), r));
    scoreArmedHint(g, r, 0.0);
    GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_TRUE(t.quarantined);
    EXPECT_EQ(t.quarantineEvents, 1u);
    EXPECT_LT(t.trust, 0.30);

    // Quarantined hints are armed for scoring only: rejected, no action.
    FakeBroker broker;
    EXPECT_FALSE(g.acceptHint(hint(r, 12), r));
    EXPECT_EQ(g.predictiveStep(r, broker), 0);
    EXPECT_EQ(r.size(), 4u);

    // Probation: truthful forecasts re-earn trust past kHintRestoreAbove
    // while the quarantine epochs tick; then service resumes.
    scoreArmedHint(g, r, 0.30);
    EXPECT_FALSE(g.acceptHint(hint(r, 12), r)); // still quarantined
    scoreArmedHint(g, r, 0.30);
    t = g.telemetry(r.asid());
    EXPECT_GT(t.trust, 0.65);
    EXPECT_FALSE(t.quarantined);
    EXPECT_TRUE(g.acceptHint(hint(r, 12), r));
}

TEST(Guardian, SupersededHintScoredOnPartialEvidence)
{
    QosGuardian g(predictiveParams());
    Region r = makeRegion(4);
    EXPECT_FALSE(g.acceptHint(hint(r, 12), r));
    // One clean post-shift interval of evidence, then a newer forecast
    // arrives: the old hint is finalized on what was observed instead
    // of expiring unjudged — and the earned trust makes the *new* hint
    // action-eligible (finalize runs before the trust gate).
    scoreArmedHint(g, r, 0.30, /*intervals=*/1);
    EXPECT_TRUE(g.acceptHint(hint(r, 12), r));
    EXPECT_GT(g.telemetry(r.asid()).trust, 0.55);
}

TEST(Guardian, RestoreFloorRacesPreGrantWithoutOverProvisioning)
{
    // A region squeezed below its floor with a grow hint in flight:
    // restoreFloor tops it up to the floor first, and the predictive
    // step then only adds what is still missing toward the promised
    // target — the two paths never double-provision past the target.
    const MolecularCacheParams p = predictiveParams();
    const Resizer resizer(p);
    QosGuardian g(p);
    FakeBroker broker;
    Region r = makeRegion(2, /*floor=*/4);
    earnTrust(g, r);
    EXPECT_TRUE(g.acceptHint(hint(r, 8, 1000), r));
    feedInterval(r, 1000, 300, 0);
    resizer.resizeRegion(r, 0.1, broker, &g);
    EXPECT_EQ(r.size(), 8u); // floor restore (2->4) + pre-grant (4->8)
    const GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_EQ(t.floorRestoreGrants, 2u);
    EXPECT_EQ(t.preGrantMolecules, 4u);
}

TEST(Guardian, PreWithdrawClampedAtTheCapacityFloor)
{
    // Even a trusted, due, pressure-justified pre-withdraw cannot pull
    // a region below its floor (Resizer::predictivePulse runs through
    // the guarded broker).
    const MolecularCacheParams p = predictiveParams();
    const Resizer resizer(p);
    QosGuardian g(p);
    FakeBroker broker;
    Region r = makeRegion(6, /*floor=*/4);
    earnTrust(g, r);
    for (u32 i = 0; i < 20; ++i)
        g.noteGrant(r.asid(), 8, 0);
    EXPECT_TRUE(g.acceptHint(hint(r, 1), r));
    const i32 delta = resizer.predictivePulse(r, broker, &g);
    EXPECT_EQ(delta, -2); // 6 -> 4, stopped by the floor, not target 1
    EXPECT_EQ(r.size(), 4u);
    EXPECT_GE(g.telemetry(r.asid()).floorHits, 1u);
}

TEST(Guardian, FixedWindowOutsideGoalAccounting)
{
    QosGuardian g(params());
    Region r = makeRegion(4);
    r.resizeGoal = 0.1;
    // One nominal period (25000) of accesses at 50% misses: outside.
    for (u32 i = 0; i < 25'000; ++i) {
        const bool hit = (i & 1u) == 0;
        r.noteAccess(hit);
        g.noteAccess(r, hit);
    }
    GuardianAppTelemetry t = g.telemetry(r.asid());
    EXPECT_EQ(t.epochsOutsideGoal, 1u);
    EXPECT_EQ(t.accessesOutsideGoal, 25'000u);
    // One window of all hits: inside goal, counters unchanged.
    for (u32 i = 0; i < 25'000; ++i) {
        r.noteAccess(true);
        g.noteAccess(r, true);
    }
    t = g.telemetry(r.asid());
    EXPECT_EQ(t.epochsOutsideGoal, 1u);
    EXPECT_EQ(t.accessesOutsideGoal, 25'000u);
}

TEST(Guardian, SummaryAggregatesAcrossRegions)
{
    QosGuardian g(params());
    const Region a = makeRegion(8); // Asid 1 (makeRegion default)
    Region b(Asid{2}, PlacementPolicy::Random, 1, TileId{0}, ClusterId{0},
             8_KiB, 64);
    b.addMolecule(MoleculeId{50}, TileId{0}, true);
    b.capacityFloor = 2;
    for (u32 i = 0; i < kGuardianFeasibilityEpochs; ++i)
        g.afterDecision(a, 0, 0.9, 0.1); // infeasible
    g.clampWithdraw(b, 1);               // floor hit on the other region
    const GuardianSummary s = g.summary();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.infeasibleRegions, 1u);
    EXPECT_EQ(s.floorHits, 1u);
    EXPECT_GT(s.maxShortfall, 0.0);
}

} // namespace
} // namespace molcache
