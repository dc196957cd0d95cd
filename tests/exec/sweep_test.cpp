#include "exec/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/experiment.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

namespace molcache {
namespace {

SweepSpec
tinySpec()
{
    SweepSpec spec("tiny");
    spec.setAssoc("dm", traditionalParams(64_KiB, 1))
        .setAssoc("4way", traditionalParams(64_KiB, 4))
        .workload("solo", {"ammp"})
        .workload("pair", {"ammp", "mcf"})
        .goals(GoalSet::uniform(0.1, 2))
        .references(2000);
    return spec;
}

TEST(SweepSpec, ExpandIsTheOrderedCartesianProduct)
{
    SweepSpec spec = tinySpec();
    spec.seeds({1, 2, 3});
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u * 2u * 3u);
    // Nesting order: models -> workloads -> seeds, indices 0..n-1.
    for (u64 i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[0].modelLabel, "dm");
    EXPECT_EQ(jobs[0].workloadLabel, "solo");
    EXPECT_EQ(jobs[0].options.seed, 1u);
    EXPECT_EQ(jobs[2].options.seed, 3u);
    EXPECT_EQ(jobs[3].workloadLabel, "pair");
    EXPECT_EQ(jobs[6].modelLabel, "4way");
    // Shared RunOptions fields fan out to every job.
    EXPECT_EQ(jobs[5].options.totalReferences, 2000u);
    EXPECT_TRUE(jobs[5].options.goals.hasGoal(Asid{0}));
}

TEST(SweepSpec, DefaultSeedAxisIsOne)
{
    const auto jobs = tinySpec().expand();
    ASSERT_EQ(jobs.size(), 4u);
    for (const SimJob &job : jobs)
        EXPECT_EQ(job.options.seed, 1u);
}

TEST(SweepSpec, PerWorkloadGoalsOverrideSpecGoals)
{
    GoalSet own;
    own.set(Asid{0}, 0.33);
    SweepSpec spec("goals");
    spec.setAssoc("dm", traditionalParams(64_KiB, 1))
        .workload("default-goals", {"ammp"})
        .workload("own-goals", {"ammp"}, own)
        .goals(GoalSet::uniform(0.1, 1));
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_DOUBLE_EQ(*jobs[0].options.goals.goal(Asid{0}), 0.1);
    EXPECT_DOUBLE_EQ(*jobs[1].options.goals.goal(Asid{0}), 0.33);
}

TEST(SweepSpecDeathTest, EmptyAxisIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    SweepSpec no_models("no_models");
    no_models.workload("solo", {"ammp"});
    EXPECT_DEATH(no_models.expand(), "no model axis");

    SweepSpec no_workloads("no_workloads");
    no_workloads.setAssoc("dm", traditionalParams(64_KiB, 1));
    EXPECT_DEATH(no_workloads.expand(), "no workload axis");
}

TEST(SweepJob, BuildJobModelRegistersApplications)
{
    SweepSpec spec("build");
    spec.molecular("mol", fig5MolecularParams(1_MiB, PlacementPolicy::Randy))
        .workload("pair", {"ammp", "mcf"})
        .registrationGoal(0.2)
        .references(1000);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    auto model = buildJobModel(jobs[0]);
    auto &cache = dynamic_cast<MolecularCache &>(*model);
    EXPECT_GT(cache.region(Asid{0}).size(), 0u);
    EXPECT_GT(cache.region(Asid{1}).size(), 0u);
}

TEST(SweepJob, RunSimJobHonoursReferencesAndSeed)
{
    SweepSpec spec("run");
    spec.setAssoc("dm", traditionalParams(64_KiB, 1))
        .workload("solo", {"ammp"})
        .seeds({7})
        .references(5000);
    const auto jobs = spec.expand();
    const SweepPointResult point = runSimJob(jobs[0]);
    EXPECT_EQ(point.result.accesses, 5000u);
    EXPECT_EQ(point.seed, 7u);
    EXPECT_EQ(point.modelLabel, "dm");
    EXPECT_EQ(point.workloadLabel, "solo");
}

TEST(SweepReport, PointLookup)
{
    const SweepReport report = runSweep(tinySpec(), 1);
    ASSERT_EQ(report.points.size(), 4u);
    const SweepPointResult &p = report.point("4way", "pair");
    EXPECT_EQ(p.result.accesses, 2000u);
    EXPECT_EQ(p.index, 3u); // 4way is model 1, pair is workload 1
}

TEST(SweepReport, InspectHookFillsExtraMetrics)
{
    SweepSpec spec = tinySpec();
    spec.inspect([](const SimJob &job, CacheModel &, MetricMap &extra) {
        extra["job_index"] = static_cast<double>(job.index);
    });
    const SweepReport report = runSweep(spec, 1);
    for (const SweepPointResult &p : report.points)
        EXPECT_DOUBLE_EQ(p.extra.at("job_index"),
                         static_cast<double>(p.index));
}

TEST(SweepReport, JsonIsSchemaVersionedAndHasNoTiming)
{
    const SweepReport report = runSweep(tinySpec(), 1);
    std::ostringstream deterministic;
    report.writeJson(deterministic);
    const std::string text = deterministic.str();
    EXPECT_NE(text.find("\"schemaVersion\""), std::string::npos);
    EXPECT_NE(text.find("\"kind\": \"sweep\""), std::string::npos);
    EXPECT_NE(text.find("\"sweep\": \"tiny\""), std::string::npos);
    EXPECT_EQ(text.find("\"timing\""), std::string::npos)
        << "timing must stay out of the deterministic document";

    std::ostringstream again;
    report.writeJson(again);
    EXPECT_EQ(text, again.str()) << "repeated serialization must not drift";
}

} // namespace
} // namespace molcache
