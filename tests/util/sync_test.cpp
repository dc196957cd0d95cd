#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/types.hpp"

namespace molcache {
namespace {

TEST(Sync, MutexLockProvidesMutualExclusion)
{
    mc::Mutex mutex;
    u64 counter = 0;
    constexpr u64 kIncrements = 20000;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            for (u64 i = 0; i < kIncrements; ++i) {
                mc::MutexLock lock(mutex);
                ++counter;
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter, 4 * kIncrements);
}

TEST(Sync, MutexLockReleasesOnScopeExit)
{
    mc::Mutex mutex;
    {
        mc::MutexLock lock(mutex);
    }
    // Released: try_lock must succeed from the same thread.
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
}

TEST(Sync, TryLockFailsWhileHeld)
{
    mc::Mutex mutex;
    mc::MutexLock lock(mutex);
    bool acquired = true;
    // try_lock on a std::mutex already held by this thread is UB, so
    // probe from another thread.
    std::thread prober([&] { acquired = mutex.try_lock(); });
    prober.join();
    EXPECT_FALSE(acquired);
}

} // namespace
} // namespace molcache
