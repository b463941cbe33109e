#ifndef IOLAP_COMMON_THREAD_POOL_H_
#define IOLAP_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace iolap {

/// Fixed-size worker pool used for intra-batch parallelism in the delta
/// engine (classification and per-trial predicate evaluation, and the
/// trial-partitioned replica flush). It has one entry point, ParallelRanges:
/// split [0, count) into contiguous ranges, run them on the workers, wait.
/// The pool is optional: with num_threads == 0 the single range runs inline
/// on the caller, which keeps single-threaded runs fully deterministic and
/// easy to debug — and the engine's parallel phases are structured so that
/// results are bit-identical for every thread count (see docs/INTERNALS.md,
/// "Parallelism model").
///
/// Error handling: a task that throws does not take the process down
/// (std::terminate); the first exception of a ParallelRanges call is
/// captured and rethrown on the calling thread. Later exceptions of the
/// same call are swallowed.
///
/// Re-entrancy contract: each ParallelRanges call waits on its own
/// completion latch, so concurrent calls from different threads do not
/// wait on each other's work. Calling ParallelRanges from inside a pool
/// task deadlocks (the nested call would wait on workers that are all
/// busy) — parallel phases must be issued from the driving thread only.
///
/// Concurrency invariants are expressed with Clang thread-safety
/// annotations (common/thread_annotations.h) and checked at compile time
/// under -Wthread-safety: every shared member is IOLAP_GUARDED_BY its
/// mutex, and the lambdas handed to SubmitToGroup must not capture by
/// reference by default (tools/lint rule `pool-capture`).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(begin, end, lane) over a static partition of [0, count) into
  /// at most num_lanes() contiguous ranges and waits. Rethrows the first
  /// exception fn raised. Safe to call concurrently from multiple non-pool
  /// threads. The lane index is a stable, deterministic property of the
  /// *range* (not of the worker that happens to execute it), so per-lane
  /// resources — e.g. an Rng split via Rng::ForLane(seed, lane) — yield
  /// results independent of scheduling. Inline mode runs a single range
  /// [0, count) with lane 0.
  ///
  /// `idempotent` declares that re-running a range after arbitrary partial
  /// work leaves the same final state (true of the engine's pure
  /// evaluation phases, which only overwrite disjoint output slots). Only
  /// idempotent bodies participate in fault injection: the pool-task-fault
  /// failpoint makes an attempt die with FailpointInjectedError after its
  /// work, and the wrapper absorbs the crash by re-running the range —
  /// chaos-testing exactly the retry that idempotency licenses. Bodies
  /// whose re-execution would double-apply (e.g. trial-accumulator adds)
  /// must stay non-idempotent and are never injected.
  void ParallelRanges(
      size_t count,
      const std::function<void(size_t begin, size_t end, size_t lane)>& fn,
      bool idempotent = false) IOLAP_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Number of lanes ParallelRanges partitions into (1 in inline mode).
  size_t num_lanes() const {
    return workers_.empty() ? 1 : workers_.size();
  }

 private:
  /// Per-call completion state for ParallelRanges: tasks of one call count
  /// down their own latch, so concurrent calls are independent.
  struct TaskGroup {
    Mutex mu;
    CondVar done;
    size_t remaining IOLAP_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error IOLAP_GUARDED_BY(mu);
  };

  void WorkerLoop() IOLAP_EXCLUDES(mu_);
  /// Enqueues `task` charged to `group`.
  void SubmitToGroup(TaskGroup* group, std::function<void()> task)
      IOLAP_EXCLUDES(mu_);
  /// Blocks until `group` drains, then rethrows its first error, if any.
  static void WaitGroup(TaskGroup* group);

  /// Immutable after construction (joined in the destructor only).
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar task_ready_;
  std::queue<std::pair<TaskGroup*, std::function<void()>>> tasks_
      IOLAP_GUARDED_BY(mu_);
  bool shutdown_ IOLAP_GUARDED_BY(mu_) = false;
};

}  // namespace iolap

#endif  // IOLAP_COMMON_THREAD_POOL_H_
