#include "core/resizer.hpp"

#include <gtest/gtest.h>

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

MolecularCacheParams
params()
{
    MolecularCacheParams p;
    p.maxAllocationChunk = 8;
    p.minIntervalSample = 100;
    return p;
}

Region
makeRegion(u32 molecules)
{
    Region r(Asid{1}, PlacementPolicy::Random, 1, TileId{0},
             ClusterId{0}, 8_KiB, 64);
    for (u32 m = 0; m < molecules; ++m)
        r.addMolecule(MoleculeId{m}, TileId{0}, true);
    r.maxAllocation = 8;
    r.lastGrant = molecules;
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
            double mr = 0.3)
{
    feedInterval(r, 1000, static_cast<u32>(mr * 1000),
                 static_cast<u32>(mr * 1000));
    resizer.resizeRegion(r, 0.1, broker);
}

TEST(Resizer, IdleRegionUntouched)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(4);
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_FALSE(out.evaluated);
    EXPECT_EQ(out.delta, 0);
    EXPECT_EQ(r.size(), 4u);
}

TEST(Resizer, BelowMinimumSampleAccumulates)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(4);
    feedInterval(r, 50, 25, 25); // below minIntervalSample=100
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_FALSE(out.evaluated);
    EXPECT_EQ(r.intervalAccesses(), 50u); // interval NOT closed
}

TEST(Resizer, FirstEvaluationOnlyObserves)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(4);
    feedInterval(r, 1000, 900, 900); // wildly thrashing, but cold
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_TRUE(out.evaluated);
    EXPECT_EQ(out.delta, 0);
    EXPECT_EQ(r.size(), 4u);
    EXPECT_NEAR(r.lastMissRate, 0.9, 1e-9);
    EXPECT_EQ(r.intervalAccesses(), 0u); // interval closed
}

TEST(Resizer, GrowsWhileImproving)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(4);
    primeRegion(r, resizer, broker, 0.40);
    // mr 0.3 < 0.4*(1-eps): improving, above goal 0.1 => grow toward
    // size*mr/goal = 4*3 = 12, chunk-capped at 8.
    feedInterval(r, 1000, 300, 300);
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_EQ(out.delta, 8);
    EXPECT_EQ(r.size(), 12u);
}

TEST(Resizer, HoldsWhenNotImproving)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(4);
    primeRegion(r, resizer, broker, 0.30);
    feedInterval(r, 1000, 300, 300); // same mr: no improvement
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_EQ(out.delta, 0);
    EXPECT_EQ(r.size(), 4u);
}

TEST(Resizer, GrowNeedsFivePercentImprovement)
{
    const Resizer resizer(params());
    FakeBroker broker;
    // 0.29 is ~3 % better than 0.30: inside the 5 % noise margin, hold.
    Region held = makeRegion(4);
    primeRegion(held, resizer, broker, 0.30);
    feedInterval(held, 1000, 290, 290);
    EXPECT_EQ(resizer.resizeRegion(held, 0.1, broker).delta, 0);
    EXPECT_EQ(held.size(), 4u);
    // 0.28 is ~7 % better: past the margin, grow.
    Region grown = makeRegion(4);
    primeRegion(grown, resizer, broker, 0.30);
    feedInterval(grown, 1000, 280, 280);
    EXPECT_GT(resizer.resizeRegion(grown, 0.1, broker).delta, 0);
    EXPECT_GT(grown.size(), 4u);
}

TEST(Resizer, WithdrawsWhenUnderGoal)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(16);
    primeRegion(r, resizer, broker, 0.30);
    // mr 0.025 < goal 0.1: withdraw sqrt(16*0.025/0.1) = 2.
    feedInterval(r, 1000, 25, 25);
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_EQ(out.delta, -2);
    EXPECT_EQ(r.size(), 14u);
}

TEST(Resizer, WithdrawNeverEmptiesRegion)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(2);
    primeRegion(r, resizer, broker, 0.30);
    feedInterval(r, 1000, 0, 0); // perfect hit rate: maximal withdrawal
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_GE(r.size(), 1u);
}

TEST(Resizer, ThrashNeedsTwoConsecutiveIntervals)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(32);
    primeRegion(r, resizer, broker, 0.30);
    // One thrashing interval: streak 1, no cap yet (falls to hold).
    feedInterval(r, 1000, 700, 700);
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_EQ(r.size(), 32u);
    // Second thrashing interval: capped down to maxAllocation.
    feedInterval(r, 1000, 700, 700);
    const RegionResize out = resizer.resizeRegion(r, 0.1, broker);
    EXPECT_LT(out.delta, 0);
    EXPECT_EQ(r.size(), r.maxAllocation);
}

TEST(Resizer, ThrashThresholdIsStrict)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(32);
    primeRegion(r, resizer, broker, 0.30);
    // A replacement rate of exactly 0.5 is not thrashing.
    for (int i = 0; i < 2; ++i) {
        feedInterval(r, 1000, 500, 500);
        resizer.resizeRegion(r, 0.1, broker);
        EXPECT_EQ(r.thrashStreak, 0u);
    }
    EXPECT_EQ(r.size(), 32u);
    // Just above it, two intervals cap the region.
    feedInterval(r, 1000, 600, 600);
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_EQ(r.thrashStreak, 1u);
    feedInterval(r, 1000, 600, 600);
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_EQ(r.size(), r.maxAllocation);
}

TEST(Resizer, ThrashStreakResetByGoodInterval)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(32);
    primeRegion(r, resizer, broker, 0.30);
    feedInterval(r, 1000, 700, 700); // streak 1
    resizer.resizeRegion(r, 0.1, broker);
    feedInterval(r, 1000, 200, 200); // healthy: streak resets
    resizer.resizeRegion(r, 0.1, broker);
    feedInterval(r, 1000, 700, 700); // streak 1 again: still no cap
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_GE(r.size(), 32u);
}

TEST(Resizer, ColdFillsDoNotCountAsThrash)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(32);
    primeRegion(r, resizer, broker, 0.30);
    // High miss rate but almost all compulsory (no replacements).
    feedInterval(r, 1000, 700, 10);
    resizer.resizeRegion(r, 0.1, broker);
    feedInterval(r, 1000, 700, 10);
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_GE(r.size(), 32u) << "cold-miss compensation failed";
}

TEST(Resizer, PeriodAdaptation)
{
    const Resizer resizer(params());
    // Under goal: doubles. Over: drops to 10%. Clamped at both ends.
    EXPECT_EQ(resizer.adaptPeriod(25000, 0.05, 0.1), 50000u);
    EXPECT_EQ(resizer.adaptPeriod(25000, 0.5, 0.1), 2500u);
    EXPECT_EQ(resizer.adaptPeriod(2500, 0.5, 0.1),
              params().minResizePeriod);
    EXPECT_EQ(resizer.adaptPeriod(700000, 0.01, 0.1),
              params().maxResizePeriod);
}

TEST(Resizer, PeriodAdaptationEdgeCases)
{
    const Resizer resizer(params());
    // goal = 0: no miss rate can be under it, so the period always takes
    // the over-goal branch (shrinks) rather than dividing by zero.
    EXPECT_EQ(resizer.adaptPeriod(25000, 0.0, 0.0), 2500u);
    EXPECT_EQ(resizer.adaptPeriod(25000, 1.0, 0.0), 2500u);
    // Extreme miss rates behave like any other side of the goal.
    EXPECT_EQ(resizer.adaptPeriod(25000, 0.0, 0.1), 50000u);
    EXPECT_EQ(resizer.adaptPeriod(25000, 1.0, 0.1), 2500u);
    // Exactly at the goal counts as not-under: the loop speeds up.
    EXPECT_EQ(resizer.adaptPeriod(25000, 0.1, 0.1), 2500u);
    // Landing exactly on a clamp boundary is a fixed point, not an
    // overshoot: 400000*2 == maxResizePeriod, 25000*0.1 == min.
    EXPECT_EQ(resizer.adaptPeriod(400000, 0.05, 0.1),
              params().maxResizePeriod);
    EXPECT_EQ(resizer.adaptPeriod(25000, 0.5, 0.1),
              params().minResizePeriod);
}

TEST(Resizer, PeriodAdaptationPinnedClamp)
{
    // minResizePeriod == maxResizePeriod pins the period entirely.
    MolecularCacheParams p = params();
    p.minResizePeriod = 10000;
    p.maxResizePeriod = 10000;
    const Resizer resizer(p);
    EXPECT_EQ(resizer.adaptPeriod(10000, 0.05, 0.1), 10000u);
    EXPECT_EQ(resizer.adaptPeriod(10000, 0.5, 0.1), 10000u);
}

TEST(Resizer, CountersAccumulate)
{
    const Resizer resizer(params());
    FakeBroker broker;
    Region r = makeRegion(4);
    primeRegion(r, resizer, broker, 0.40);
    feedInterval(r, 1000, 300, 300);
    resizer.resizeRegion(r, 0.1, broker);
    EXPECT_GE(resizer.runs(), 2u);
    EXPECT_GE(resizer.granted(), 8u);
}

} // namespace
} // namespace molcache
