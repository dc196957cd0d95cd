/**
 * @file
 * The repo's only sanctioned mutex vocabulary.
 *
 * mc::Mutex and mc::MutexLock wrap std::mutex with the Clang Thread
 * Safety Analysis capability annotations
 * (util/thread_annotations.hpp), so every guarded member can name the
 * mutex that protects it and an access without the lock is a compile
 * error under the clang presets.  Raw std::mutex /
 * std::condition_variable / std::lock_guard / std::unique_lock outside
 * this header are a molcache-lint `naked-mutex` finding: unannotated
 * primitives are invisible to the analysis, so they would silently
 * punch holes in the machine-checked discipline ROADMAP item 1's
 * concurrent service depends on.
 *
 * Deliberately small surface:
 *
 *   - Mutex: exclusive-only (no shared/timed variants until a caller
 *     needs them), non-recursive.
 *   - MutexLock: scope-shaped RAII holder, no unlock()/release() —
 *     early release hides the critical-section extent from both the
 *     reader and the analysis; end the scope instead.
 *
 * There is no condition variable: nothing in the tree waits on one.
 *
 * docs/static_analysis.md ("Concurrency discipline") has the usage
 * rules and escape hatches.
 */

#ifndef MOLCACHE_UTIL_SYNC_HPP
#define MOLCACHE_UTIL_SYNC_HPP

#include <mutex>

#include "util/thread_annotations.hpp"

namespace molcache {
namespace mc {

/** An annotated exclusive mutex (a TSA "capability"). */
class MOLCACHE_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() MOLCACHE_ACQUIRE()
    {
        m_.lock();
    }

    void
    unlock() MOLCACHE_RELEASE()
    {
        m_.unlock();
    }

    bool
    try_lock() MOLCACHE_TRY_ACQUIRE(true)
    {
        return m_.try_lock();
    }

  private:
    std::mutex m_;
};

/**
 * RAII holder: acquires in the constructor, releases in the destructor.
 * The TSA scoped-capability annotation makes the held extent visible to
 * the analysis, so guarded members are accessible exactly inside the
 * lexical scope of the lock object.
 */
class MOLCACHE_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) MOLCACHE_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() MOLCACHE_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

} // namespace mc
} // namespace molcache

#endif // MOLCACHE_UTIL_SYNC_HPP
