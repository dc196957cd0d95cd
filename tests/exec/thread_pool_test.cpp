#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace molcache {
namespace {

/** Cheap mixing work the optimizer cannot fold away across iterations. */
u64
splitmixish(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    return x ^ (x >> 27);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    constexpr u64 kJobs = 1000;
    std::vector<std::atomic<u32>> hits(kJobs);
    parallelFor(4, kJobs, [&](u64 i) { hits[i].fetch_add(1); });
    for (u64 i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelFor, SingleThreadRunsInline)
{
    const auto caller = std::this_thread::get_id();
    bool inline_run = false;
    EXPECT_EQ(parallelFor(1, 3,
                          [&](u64) {
                              inline_run =
                                  std::this_thread::get_id() == caller;
                          }),
              1u);
    EXPECT_TRUE(inline_run);
}

TEST(ParallelFor, ZeroMeansHardwareConcurrency)
{
    EXPECT_EQ(parallelFor(0, 1, [](u64) {}), defaultThreadCount());
    EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ParallelFor, EmptyBatchReturnsImmediately)
{
    u64 calls = 0;
    parallelFor(2, 0, [&](u64) { ++calls; });
    EXPECT_EQ(calls, 0u);
}

TEST(ParallelFor, UnevenJobsAllComplete)
{
    // Wildly skewed job sizes: the threads that drew the giant jobs
    // stay busy while the others claim everything that is left.
    std::atomic<u64> sum{0};
    parallelFor(4, 64, [&](u64 i) {
        const u64 spin = (i % 8 == 0) ? 200000 : 10;
        u64 sink = 0;
        for (u64 k = 0; k < spin; ++k)
            sink += splitmixish(k);
        sum.fetch_add(i + (sink & 0)); // keep the loop observable
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2);
}

TEST(ParallelFor, FirstExceptionPropagates)
{
    std::atomic<u64> ran{0};
    EXPECT_THROW(parallelFor(2, 10,
                             [&](u64 i) {
                                 ran.fetch_add(1);
                                 if (i == 5)
                                     throw std::runtime_error("job 5");
                             }),
                 std::runtime_error);
    // The throw neither skips the remaining jobs nor leaks a thread.
    EXPECT_EQ(ran.load(), 10u);
}

TEST(ParallelFor, ThreadsEqualJobsRunConcurrently)
{
    // Every job waits until all of them have started, so this finishes
    // only if each job has its own thread — the drills' driver and
    // workers depend on exactly that.
    constexpr u64 kJobs = 6;
    std::latch started(kJobs);
    std::atomic<u64> done{0};
    parallelFor(kJobs, kJobs, [&](u64) {
        started.arrive_and_wait();
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), kJobs);
}

} // namespace
} // namespace molcache
