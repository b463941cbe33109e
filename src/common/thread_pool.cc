#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace iolap {

namespace {

/// Executes one parallel task body. For idempotent bodies the
/// pool-task-fault failpoint simulates a worker dying *after* its (partial
/// or complete) work: the doomed attempt runs, "crashes", and the body is
/// re-run — idempotency makes the duplicate work invisible, which is
/// precisely the property the injection exercises. `detail` is the task's
/// first index: deterministic per task, though the order in which
/// concurrent tasks consult the failpoint follows scheduling (hit-count
/// activation modes pick a scheduling-dependent task; `at:`/`prob:` keyed
/// on the detail do not).
void RunTaskBody(bool idempotent, uint64_t detail,
                 const std::function<void()>& body) {
  if (idempotent && IOLAP_FAILPOINT(Failpoint::kPoolTaskFault, detail)) {
    try {
      body();
      throw FailpointInjectedError("pool-task-fault");
    } catch (const FailpointInjectedError&) {
      // Transient crash absorbed; retry below.
    }
  }
  body();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_ready_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::SubmitToGroup(TaskGroup* group, std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.emplace(group, std::move(task));
    MutexLock group_lock(group->mu);
    ++group->remaining;
  }
  task_ready_.NotifyOne();
}

void ThreadPool::WaitGroup(TaskGroup* group) {
  std::exception_ptr error;
  {
    MutexLock lock(group->mu);
    while (group->remaining != 0) group->done.Wait(group->mu);
    error = std::exchange(group->first_error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelRanges(
    size_t count,
    const std::function<void(size_t, size_t, size_t)>& fn,
    bool idempotent) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    RunTaskBody(idempotent, 0, [count, &fn] { fn(0, count, 0); });
    return;
  }
  const size_t lanes = std::min(count, num_lanes());
  const size_t per_lane = (count + lanes - 1) / lanes;
  TaskGroup group;
  for (size_t lane = 0; lane < lanes; ++lane) {
    const size_t begin = lane * per_lane;
    const size_t end = std::min(count, begin + per_lane);
    if (begin >= end) break;
    SubmitToGroup(&group, [begin, end, lane, &fn, idempotent] {
      RunTaskBody(idempotent, begin,
                  [begin, end, lane, &fn] { fn(begin, end, lane); });
    });
  }
  WaitGroup(&group);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    TaskGroup* group = nullptr;
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) return;  // shutdown with drained queue
      group = tasks_.front().first;
      task = std::move(tasks_.front().second);
      tasks_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(group->mu);
    if (error && !group->first_error) group->first_error = error;
    if (--group->remaining == 0) group->done.NotifyAll();
  }
}

}  // namespace iolap
