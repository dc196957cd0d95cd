#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace molcache {

u32
defaultThreadCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

u32
parallelFor(u32 threads, u64 jobCount, const std::function<void(u64)> &body)
{
    const u32 count = threads == 0 ? defaultThreadCount() : threads;
    std::atomic<u64> next{0};
    // The first exception any job threw; later ones are dropped.
    std::once_flag failed;
    std::exception_ptr first_error;
    const auto drain = [&] {
        for (u64 i = next.fetch_add(1, std::memory_order_relaxed);
             i < jobCount; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                body(i);
            } catch (...) {
                std::call_once(failed, [&] {
                    first_error = std::current_exception();
                });
            }
        }
    };
    {
        // The caller is one of the `active` threads; the helpers join
        // when this scope closes.
        const u64 active = std::min<u64>(count, jobCount);
        std::vector<std::jthread> helpers;
        helpers.reserve(active);
        for (u64 t = 1; t < active; ++t)
            helpers.emplace_back(drain);
        drain();
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return count;
}

} // namespace molcache
