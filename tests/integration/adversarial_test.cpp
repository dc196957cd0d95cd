/**
 * @file
 * Adversarial-workload integration suite (ctest label: adversarial).
 *
 * Runs the guardian-on control plane against the four-application mix
 * from workload/adversarial.hpp and asserts the QoS guardian's
 * acceptance properties end to end:
 *  - the hog's unreachable goal is flagged Infeasible with a reported
 *    shortfall (admission control);
 *  - observed delta sign flips stay within the configured bound
 *    (oscillation detector);
 *  - no region ends below its capacity floor (fairness);
 *  - nothing is stuck past the watchdog budget — the phase-flipper
 *    re-converges after every phase change.
 */

#include <gtest/gtest.h>

#include "core/guardian.hpp"
#include "core/molecular_cache.hpp"
#include "sim/simulator.hpp"
#include "workload/adversarial.hpp"

namespace molcache {
namespace {

constexpr u64 kRefs = 600'000;
constexpr u32 kFloor = 2;

const std::vector<AdversaryKind> kMix = {
    AdversaryKind::PhaseFlip,
    AdversaryKind::Hog,
    AdversaryKind::Bursty,
    AdversaryKind::Steady,
};

struct Drill
{
    MolecularCacheParams params;
    std::unique_ptr<MolecularCache> cache;
    SimResult result;
};

/** One guardian-on run over the 2 MiB default geometry the adversary
 * footprints are tuned against; shared by every assertion below. */
const Drill &
drill()
{
    static const Drill d = [] {
        Drill out;
        out.params.resizeScheme = ResizeScheme::PerAppAdaptive;
        out.params.guardian.enabled = true;
        out.params.guardian.floorMolecules = kFloor;
        out.cache = std::make_unique<MolecularCache>(out.params);

        GoalSet goals;
        std::vector<std::string> names;
        for (size_t i = 0; i < kMix.size(); ++i) {
            const Asid asid{static_cast<u16>(i)};
            const double goal =
                kMix[i] == AdversaryKind::Hog ? 0.02 : 0.1;
            goals.set(asid, goal);
            out.cache->registerApplication(asid, goal);
            names.push_back(adversaryKindName(kMix[i]));
        }
        auto source = makeAdversarialSource(kMix, kRefs, /*seed=*/1);
        out.result = Simulator::run(*source, *out.cache,
                                    RunOptions{}
                                        .withGoals(goals)
                                        .withLabels(labelMap(names)));
        return out;
    }();
    return d;
}

const GuardianAppTelemetry &
telemetryOf(AdversaryKind kind)
{
    for (size_t i = 0; i < kMix.size(); ++i) {
        if (kMix[i] != kind)
            continue;
        const AppSummary *app =
            drill().result.qos.find(Asid{static_cast<u16>(i)});
        EXPECT_NE(app, nullptr);
        EXPECT_TRUE(app->guardian.has_value());
        return *app->guardian;
    }
    static const GuardianAppTelemetry none{};
    return none;
}

TEST(Adversarial, GuardianTelemetrySurfacesThroughSimResult)
{
    const SimResult &r = drill().result;
    EXPECT_TRUE(r.guardian.enabled);
    EXPECT_EQ(r.qos.apps.size(), kMix.size());
    for (const AppSummary &app : r.qos.apps)
        EXPECT_TRUE(app.guardian.has_value()) << app.label;
}

TEST(Adversarial, HogGoalFlaggedInfeasibleWithShortfall)
{
    const GuardianAppTelemetry &hog = telemetryOf(AdversaryKind::Hog);
    EXPECT_EQ(hog.verdict, FeasibilityVerdict::Infeasible);
    EXPECT_GT(hog.shortfall, 0.0);
    EXPECT_GE(drill().result.guardian.infeasibleRegions, 1u);
    EXPECT_GE(drill().result.guardian.maxShortfall, hog.shortfall);
}

TEST(Adversarial, SignFlipsStayWithinConfiguredBound)
{
    for (size_t i = 0; i < kMix.size(); ++i) {
        const AppSummary *app =
            drill().result.qos.find(Asid{static_cast<u16>(i)});
        ASSERT_NE(app, nullptr);
        ASSERT_TRUE(app->guardian.has_value());
        EXPECT_LE(app->guardian->maxSignFlips, kGuardianMaxSignFlips)
            << app->label;
    }
}

TEST(Adversarial, NoRegionEndsBelowItsFloor)
{
    for (size_t i = 0; i < kMix.size(); ++i) {
        const Region &region =
            drill().cache->region(Asid{static_cast<u16>(i)});
        EXPECT_GE(region.size(), kFloor) << adversaryKindName(kMix[i]);
    }
}

TEST(Adversarial, NothingStuckPastTheWatchdogBudget)
{
    EXPECT_EQ(drill().result.guardian.stuckRegions, 0u);
    const GuardianAppTelemetry &flip =
        telemetryOf(AdversaryKind::PhaseFlip);
    EXPECT_FALSE(flip.stuck);
    // The phase-flipper crossed its goal at least once and re-converged
    // within the watchdog budget after each inversion.
    EXPECT_LE(flip.maxEpochsToGoal, kGuardianWatchdogEpochs);
}

TEST(Adversarial, WellBehavedVictimStaysFeasible)
{
    const GuardianAppTelemetry &steady =
        telemetryOf(AdversaryKind::Steady);
    EXPECT_NE(steady.verdict, FeasibilityVerdict::Infeasible);
    EXPECT_DOUBLE_EQ(steady.shortfall, 0.0);
    EXPECT_FALSE(steady.stuck);
}

// ---------------------------------------------------------------------
// Predictive-apportioning acceptance drill (docs/algorithm1.md,
// "Predictive mode & hint trust").  The same mix and geometry run in
// four configurations; the assertions below pin the ISSUE's acceptance
// criteria so a regression in the hint path fails here before it fails
// in the CI bench gate.

constexpr size_t kPhaseFlipSlot = 0;

struct PredictiveRun
{
    SimResult result;
    /** Grant + withdraw molecule churn over the whole run. */
    u64 churn = 0;
};

/** @param predictive guardian predictive mode on
 *  @param hinted     phase-structured tenants emit hints
 *  @param invert     every hinting tenant lies (inverted sign) */
PredictiveRun
runPredictiveDrill(bool predictive, bool hinted, bool invert)
{
    MolecularCacheParams p;
    p.resizeScheme = ResizeScheme::PerAppAdaptive;
    p.guardian.enabled = true;
    p.guardian.floorMolecules = kFloor;
    p.guardian.predictive = predictive;

    GoalSet goals;
    MolecularCache cache(p);
    std::vector<std::string> names;
    for (size_t i = 0; i < kMix.size(); ++i) {
        const Asid asid{static_cast<u16>(i)};
        const double goal = kMix[i] == AdversaryKind::Hog ? 0.02 : 0.1;
        goals.set(asid, goal);
        cache.registerApplication(asid, goal);
        names.push_back(adversaryKindName(kMix[i]));
    }

    std::vector<HintPolicy> hints(kMix.size());
    for (size_t i = 0; hinted && i < kMix.size(); ++i) {
        if (kMix[i] != AdversaryKind::PhaseFlip &&
            kMix[i] != AdversaryKind::Bursty)
            continue;
        hints[i].enabled = true;
        hints[i].leadAccesses = 12'000;
        hints[i].confidence = 0.9;
        hints[i].invertPhase = invert;
    }

    auto source = makeAdversarialSource(kMix, hints, kRefs, /*seed=*/1);
    PredictiveRun out;
    out.result = Simulator::run(*source, cache,
                                RunOptions{}
                                    .withGoals(goals)
                                    .withLabels(labelMap(names)));
    out.churn = cache.resizer().granted() + cache.resizer().withdrawn();
    return out;
}

const PredictiveRun &
reactiveRun()
{
    static const PredictiveRun r = runPredictiveDrill(false, false, false);
    return r;
}

const PredictiveRun &
honestRun()
{
    static const PredictiveRun r = runPredictiveDrill(true, true, false);
    return r;
}

const PredictiveRun &
wrongHintsRun()
{
    static const PredictiveRun r = runPredictiveDrill(true, true, true);
    return r;
}

TEST(Adversarial, HonestHintsBeatReactiveOnTimeOutsideGoal)
{
    const GuardianSummary &honest = honestRun().result.guardian;
    EXPECT_TRUE(honest.predictiveEnabled);
    EXPECT_GT(honest.hintsHonored, 0u);
    EXPECT_LT(honest.accessesOutsideGoal,
              reactiveRun().result.guardian.accessesOutsideGoal);
}

TEST(Adversarial, WrongHintsDegradeGracefullyWithinTenPercent)
{
    // Graceful fallback, not amplification: with every hinting tenant
    // lying, both time-outside-goal and capacity churn stay within 10%
    // of the reactive baseline.
    const GuardianSummary &reactive = reactiveRun().result.guardian;
    const GuardianSummary &wrong = wrongHintsRun().result.guardian;
    EXPECT_LE(static_cast<double>(wrong.accessesOutsideGoal),
              1.1 * static_cast<double>(reactive.accessesOutsideGoal));
    EXPECT_LE(static_cast<double>(wrongHintsRun().churn),
              1.1 * static_cast<double>(reactiveRun().churn));
}

TEST(Adversarial, LyingTenantEndsQuarantinedInTelemetry)
{
    const SimResult &r = wrongHintsRun().result;
    const AppSummary *liar =
        r.qos.find(Asid{static_cast<u16>(kPhaseFlipSlot)});
    ASSERT_NE(liar, nullptr);
    ASSERT_TRUE(liar->guardian.has_value());
    EXPECT_TRUE(liar->guardian->quarantined);
    EXPECT_GE(liar->guardian->quarantineEvents, 1u);
    EXPECT_LT(liar->guardian->trust, kHintQuarantineBelow);
    EXPECT_GE(r.guardian.quarantinedRegions, 1u);
    EXPECT_LE(r.guardian.minTrust, liar->guardian->trust);
}

TEST(Adversarial, NoContractViolationsInAnyPredictiveMode)
{
    EXPECT_EQ(reactiveRun().result.contractViolations, 0u);
    EXPECT_EQ(honestRun().result.contractViolations, 0u);
    EXPECT_EQ(wrongHintsRun().result.contractViolations, 0u);
}

TEST(Adversarial, PredictiveOffIgnoresTheHintSideBandByteIdentically)
{
    // Hints flowing with predictive mode off must change *nothing*: the
    // address stream is hint-invariant by construction and the guardian
    // drops the hint before touching any state.
    const PredictiveRun hinted = runPredictiveDrill(false, true, false);
    const PredictiveRun &bare = reactiveRun();
    EXPECT_EQ(hinted.result.qos.globalMissRate,
              bare.result.qos.globalMissRate);
    EXPECT_EQ(hinted.result.guardian.accessesOutsideGoal,
              bare.result.guardian.accessesOutsideGoal);
    EXPECT_EQ(hinted.result.guardian.epochsOutsideGoal,
              bare.result.guardian.epochsOutsideGoal);
    EXPECT_EQ(hinted.churn, bare.churn);
    EXPECT_EQ(hinted.result.guardian.hintsSeen, 0u);
    EXPECT_FALSE(hinted.result.guardian.predictiveEnabled);
}

} // namespace
} // namespace molcache
