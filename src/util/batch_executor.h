#ifndef PXML_UTIL_BATCH_EXECUTOR_H_
#define PXML_UTIL_BATCH_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pxml {

/// Runs the queries of a batch in parallel: Run(n, fn) calls fn(i)
/// exactly once for each i < n and returns once every call has returned.
///
/// One Run call is one *job*. The calling thread and the persistent
/// workers claim the job's indices from one atomic counter, so a job
/// has no per-index queue entry. Concurrent Run calls queue as jobs,
/// which idle workers serve oldest first; a caller claims only from its
/// own job, so it never runs another batch's work. With no workers, Run
/// is a loop on the calling thread.
///
/// A job lives on its caller's stack. Workers enter and leave a job
/// under the executor mutex, and Run returns only after the job has
/// left the queue and no worker is inside it; the mutex also orders
/// every fn(i) a worker ran before Run's return.
class BatchExecutor {
 public:
  /// Starts `workers` persistent threads (0: Run loops inline).
  explicit BatchExecutor(std::size_t workers);
  /// Stops and joins the workers. Precondition: no Run is in progress.
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Calls fn(i) once for each i < n on the calling thread and any idle
  /// workers. A throwing call does not stop the job: every index still
  /// runs, and then the first exception caught is rethrown here. `fn` is
  /// called through a pointer to it, so a batch allocates nothing here.
  template <class Fn>
  void Run(std::size_t n, const Fn& fn) {
    RunJob(n, &fn, [](const void* f, std::size_t i) {
      (*static_cast<const Fn*>(f))(i);
    });
  }

  /// Indices of running jobs that no thread has claimed yet (a relaxed
  /// instantaneous read: the engine's backlog gauge).
  std::size_t unclaimed() const {
    return unclaimed_.load(std::memory_order_relaxed);
  }

 private:
  struct Job;
  using CallFn = void (*)(const void* fn, std::size_t i);

  void RunJob(std::size_t n, const void* fn, CallFn call);
  void WorkerLoop();
  /// Claims and runs `job`'s indices until none is left; returns how
  /// many this thread ran and keeps its first exception in `error`.
  std::size_t Drain(Job& job, std::exception_ptr& error);
  /// With mu_ held: takes `job` off the queue and books one thread's
  /// share of it.
  void Leave(Job& job, std::size_t ran, std::exception_ptr error);
  /// Stops and joins every started worker.
  void Stop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // a job was queued, or stop_
  std::deque<Job*> jobs_;            // guarded by mu_, oldest first
  bool stop_ = false;                // guarded by mu_
  std::atomic<std::size_t> unclaimed_{0};
  std::vector<std::thread> threads_;  // last: workers use the members above
};

}  // namespace pxml

#endif  // PXML_UTIL_BATCH_EXECUTOR_H_
