/**
 * @file
 * Clang Thread Safety Analysis annotations (no-ops elsewhere).
 *
 * The parallel trial engine promises bitwise-identical results at any
 * thread count, which only holds if every piece of genuinely shared
 * mutable state is either lock-protected or atomic. These macros let
 * us state that protection in the type system so the Clang CI leg
 * (-Wthread-safety -Werror=thread-safety) rejects unprotected access
 * at compile time instead of leaving it to flaky benchmark numbers.
 *
 * Conventions (see docs/static_analysis.md):
 *  - every mutex-protected member carries HH_GUARDED_BY(mutex);
 *  - public entry points that take the lock themselves are marked
 *    HH_EXCLUDES(mutex); helpers expecting it held use HH_REQUIRES;
 *  - state owned by exactly one trial (the engine's determinism
 *    contract, DESIGN.md section 3.2) is deliberately unannotated --
 *    annotate it the moment it becomes shared.
 *
 * The spellings follow the Clang documentation's mutex.h reference
 * header, prefixed HH_ to keep the repo grep-able.
 */

#ifndef HYPERHAMMER_BASE_THREAD_ANNOTATIONS_H
#define HYPERHAMMER_BASE_THREAD_ANNOTATIONS_H

#if defined(__clang__)
#define HH_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HH_THREAD_ANNOTATION(x) // no-op: GCC/MSVC have no TSA
#endif

/** Marks a type as a lockable capability (e.g. a mutex wrapper). */
#define HH_CAPABILITY(x) HH_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define HH_SCOPED_CAPABILITY HH_THREAD_ANNOTATION(scoped_lockable)

/** The member may only be touched while holding @p x. */
#define HH_GUARDED_BY(x) HH_THREAD_ANNOTATION(guarded_by(x))

/** The pointed-to data may only be touched while holding @p x. */
#define HH_PT_GUARDED_BY(x) HH_THREAD_ANNOTATION(pt_guarded_by(x))

/** The function acquires the capability and does not release it. */
#define HH_ACQUIRE(...) \
    HH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases a previously acquired capability. */
#define HH_RELEASE(...) \
    HH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Caller must hold the capability for the duration of the call. */
#define HH_REQUIRES(...) \
    HH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (the function takes it itself). */
#define HH_EXCLUDES(...) HH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Lock-ordering hints for deadlock detection. */
#define HH_ACQUIRED_BEFORE(...) \
    HH_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define HH_ACQUIRED_AFTER(...) \
    HH_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** The function returns a reference to the given capability. */
#define HH_RETURN_CAPABILITY(x) HH_THREAD_ANNOTATION(lock_returned(x))

/**
 * Escape hatch: the function's locking cannot be expressed statically.
 * Every use needs a comment justifying it (enforced by review; the
 * hh-lint waiver rule applies the same standard to its own escapes).
 */
#define HH_NO_THREAD_SAFETY_ANALYSIS \
    HH_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // HYPERHAMMER_BASE_THREAD_ANNOTATIONS_H
