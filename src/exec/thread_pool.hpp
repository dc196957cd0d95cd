/**
 * @file
 * parallelFor: run one batch of independent jobs across threads.
 *
 * Every caller runs exactly one batch (a sweep, or a drill's
 * workers), so there is no pool to keep alive between batches:
 * parallelFor starts its threads, lets each claim the next job index
 * from one shared atomic counter, and joins them before returning.
 * Claiming one index at a time balances wildly uneven jobs — an 8 MiB
 * molecular simulation runs ~8x longer than a 1 MiB direct-mapped one —
 * without per-thread queues or stealing.
 *
 * Determinism contract: body(i) runs exactly once for every i in
 * [0, jobCount), in unspecified order and thread placement.  Callers
 * that write only to per-index slots (the sweep engine's pattern)
 * therefore observe identical results for any thread count.
 */

#ifndef MOLCACHE_EXEC_THREAD_POOL_HPP
#define MOLCACHE_EXEC_THREAD_POOL_HPP

#include <functional>

#include "util/types.hpp"

namespace molcache {

/** hardware_concurrency with a floor of 1. */
u32 defaultThreadCount();

/**
 * Run body(i) once for every i in [0, jobCount) on @p threads threads
 * (0 = defaultThreadCount()); the caller is one of them, so with one
 * thread every job runs inline on the caller.  With threads >= jobCount
 * every job gets its own thread, which long-running jobs that wait on
 * each other rely on.  Blocks until every job has run and every thread
 * has joined; if any job threw, the first exception is rethrown then.
 *
 * @return the effective thread count (threads, or the default for 0)
 */
u32 parallelFor(u32 threads, u64 jobCount,
                const std::function<void(u64)> &body);

} // namespace molcache

#endif // MOLCACHE_EXEC_THREAD_POOL_HPP
