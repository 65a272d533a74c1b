/**
 * @file
 * Annotated mutex / condition-variable wrappers.
 *
 * std::mutex works fine at runtime but is invisible to Clang's Thread
 * Safety Analysis (libstdc++ ships no capability attributes), so
 * HH_GUARDED_BY(some_std_mutex) cannot be checked. These thin wrappers
 * carry the attributes and forward straight to the standard types; the
 * rest of the tree uses them for any state shared between threads.
 *
 * The shapes (capability class, scoped locker, REQUIRES-annotated
 * condition wait) follow the reference implementation in the Clang
 * Thread Safety Analysis documentation.
 */

#ifndef HYPERHAMMER_BASE_MUTEX_H
#define HYPERHAMMER_BASE_MUTEX_H

#include <condition_variable>
#include <mutex>

#include "base/thread_annotations.h"

namespace hh::base {

/** A std::mutex the thread-safety analysis can see. */
class HH_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() HH_ACQUIRE() { impl.lock(); }
    void unlock() HH_RELEASE() { impl.unlock(); }

    /** Underlying mutex, for CondVar's adopt/release dance only. */
    std::mutex &native() { return impl; }

  private:
    std::mutex impl;
};

/** RAII lock; the analysis tracks its scope as holding the mutex. */
class HH_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) HH_ACQUIRE(mutex) : held(mutex)
    {
        held.lock();
    }

    ~MutexLock() HH_RELEASE() { held.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &held;
};

/**
 * Condition variable over a Mutex. wait() is annotated HH_REQUIRES:
 * the caller holds the mutex on entry and on return, exactly as with
 * std::condition_variable -- the transient release inside the wait is
 * an implementation detail the analysis (correctly) never sees the
 * guarded state through, because the predicate re-check happens in the
 * caller's locked scope.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mutex, sleep, and re-acquire it. */
    void
    wait(Mutex &mutex) HH_REQUIRES(mutex)
    {
        // Adopt the already-held native mutex so std::condition_variable
        // can do its unlock/relock, then release the unique_lock so its
        // destructor leaves the (re-held) mutex alone.
        std::unique_lock<std::mutex> lock(mutex.native(),
                                          std::adopt_lock);
        impl.wait(lock);
        lock.release();
    }

    void notifyOne() { impl.notify_one(); }
    void notifyAll() { impl.notify_all(); }

  private:
    std::condition_variable impl;
};

} // namespace hh::base

#endif // HYPERHAMMER_BASE_MUTEX_H
