#ifndef IOLAP_COMMON_THREAD_ANNOTATIONS_H_
#define IOLAP_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis annotations (no-ops on other compilers).
//
// The engine's exactness guarantee under intra-batch parallelism (results
// bit-identical at every thread count; docs/INTERNALS.md "Parallelism
// model") rests on invariants — lane-split Rngs, serial apply replay,
// mutex-guarded caches — that TSan can only check on the interleavings a
// given run happens to explore. These annotations move the checking to
// compile time: building with Clang and -Wthread-safety verifies, on every
// build, that guarded state is only touched with its capability held.
//
// Conventions (see docs/INTERNALS.md §8 "Static analysis"):
//  * Mutex-protected members carry IOLAP_GUARDED_BY(mu) and are locked via
//    the annotated iolap::Mutex / iolap::MutexLock wrappers (common/mutex.h)
//    rather than raw std::mutex, which Clang cannot track.
//  * Single-threaded execution *phases* (the engine's serial apply phase)
//    are modeled as no-op capabilities (iolap::ThreadRole): functions that
//    may only run inside the phase declare IOLAP_REQUIRES(role), and the
//    driver enters the phase with iolap::ScopedThreadRole. There is no
//    runtime lock — the capability exists purely for the analysis.
//
// The macro set mirrors the de-facto standard spelling (Abseil / Clang
// documentation) under an IOLAP_ prefix.

#if defined(__clang__) && defined(__has_attribute)
#define IOLAP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define IOLAP_THREAD_ANNOTATION_(x)  // no-op
#endif

// Declares that a class models a capability (a lock, or a virtual
// capability such as an execution-phase role). `x` names the capability
// kind in diagnostics, e.g. "mutex" or "role".
#define IOLAP_CAPABILITY(x) IOLAP_THREAD_ANNOTATION_(capability(x))

// Declares an RAII class whose constructor acquires and destructor
// releases a capability.
#define IOLAP_SCOPED_CAPABILITY IOLAP_THREAD_ANNOTATION_(scoped_lockable)

// Declares that a data member is protected by the given capability: reads
// require the capability held (shared or exclusive), writes require it
// held exclusively.
#define IOLAP_GUARDED_BY(x) IOLAP_THREAD_ANNOTATION_(guarded_by(x))

// As IOLAP_GUARDED_BY, but for the data *pointed to* by a pointer member.
#define IOLAP_PT_GUARDED_BY(x) IOLAP_THREAD_ANNOTATION_(pt_guarded_by(x))

// Lock-ordering declarations (deadlock prevention).
#define IOLAP_ACQUIRED_BEFORE(...) \
  IOLAP_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define IOLAP_ACQUIRED_AFTER(...) \
  IOLAP_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// The calling thread must hold the capability (exclusively / shared) to
// call this function; the function does not acquire or release it.
#define IOLAP_REQUIRES(...) \
  IOLAP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define IOLAP_REQUIRES_SHARED(...) \
  IOLAP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// The function acquires / releases the capability (no argument = `this`).
#define IOLAP_ACQUIRE(...) \
  IOLAP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define IOLAP_ACQUIRE_SHARED(...) \
  IOLAP_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define IOLAP_RELEASE(...) \
  IOLAP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define IOLAP_RELEASE_SHARED(...) \
  IOLAP_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

// The function attempts to acquire the capability; the first argument is
// the return value that signals success.
#define IOLAP_TRY_ACQUIRE(...) \
  IOLAP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// The calling thread must NOT hold the capability (guards against
// self-deadlock on non-reentrant locks).
#define IOLAP_EXCLUDES(...) IOLAP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Asserts (to the analysis only) that the capability is held from this
// call onward in the calling scope — the escape hatch for code reached
// only via paths the intraprocedural analysis cannot see.
#define IOLAP_ASSERT_CAPABILITY(x) \
  IOLAP_THREAD_ANNOTATION_(assert_capability(x))

// The function returns a reference to the given capability.
#define IOLAP_RETURN_CAPABILITY(x) IOLAP_THREAD_ANNOTATION_(lock_returned(x))

// Opts a function out of the analysis entirely. Use sparingly and leave a
// comment explaining why the invariant holds anyway.
#define IOLAP_NO_THREAD_SAFETY_ANALYSIS \
  IOLAP_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // IOLAP_COMMON_THREAD_ANNOTATIONS_H_
