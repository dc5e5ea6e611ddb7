#ifndef PXML_UTIL_THREAD_POOL_H_
#define PXML_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pxml {

/// Per-batch pool counters (see ThreadPool::BatchMetricsScope). Every
/// task submitted while a scope is active is tagged with its BatchMetrics
/// — executions, steals, and submission queue depths are then attributed
/// to the owning batch at the moment they happen, so two batches running
/// concurrently on one pool cannot smear each other's numbers (the old
/// snapshot-and-subtract scheme could).
///
/// Memory-order contract: all fields are updated with relaxed atomics by
/// the worker performing the event. Reading them is exact once the batch
/// has quiesced — i.e. after TaskGroup::Wait() has returned for every
/// task of the batch, whose completion handshake (mutex + acquire on the
/// group's pending count) orders all of the tasks' relaxed counter writes
/// before the read. Reading mid-batch yields monotonic lower bounds.
struct BatchMetrics {
  /// Tagged tasks executed to completion (by workers or helping callers).
  std::atomic<std::uint64_t> tasks{0};
  /// Tagged tasks taken from another worker's deque.
  std::atomic<std::uint64_t> steals{0};
  /// Deepest any single queue was at the moment one of this batch's
  /// tasks was pushed onto it.
  std::atomic<std::size_t> max_queue_depth{0};
};

/// A work-stealing thread pool for the parallel query engine.
///
/// Each worker owns a deque: tasks submitted from that worker go to the
/// back of its own deque and are popped LIFO (locality for nested
/// parallelism); idle workers steal from the front of other workers'
/// deques (FIFO, oldest-first) or drain the shared injection queue that
/// external threads submit into. Destruction drains: every task submitted
/// before the destructor runs is executed before the workers join.
///
/// Tasks submitted via Submit() must not throw — use TaskGroup for
/// exception propagation.
///
/// Counter memory-order contract: every monotonic counter (global,
/// per-worker, per-batch) is a relaxed atomic incremented by the thread
/// performing the event; fetch_add never loses increments, so totals are
/// exact. Relaxed ordering means a concurrent stats() read may lag
/// in-flight events; a read that must see "everything up to now" must
/// first synchronize with the workers (TaskGroup::Wait, ~ThreadPool, or
/// any acquire pairing with the tasks' completion). The two seq_cst
/// atomics in the Submit()/WorkerLoop() Dekker handshake (queued_,
/// idle_workers_) are *correctness* protocol, not accounting — they are
/// deliberately excluded from this relaxation.
class ThreadPool {
 public:
  /// One worker's lifetime counters.
  struct WorkerStats {
    /// Tasks this worker executed to completion.
    std::uint64_t tasks_executed = 0;
    /// Tasks this worker took from another worker's deque.
    std::uint64_t steals = 0;
    /// Times this worker parked on the wake condition variable.
    std::uint64_t idle_parks = 0;
  };

  /// Pool counters. The task/steal counts are monotonic since
  /// construction. To attribute activity to one batch, prefer a
  /// BatchMetricsScope (exact even with concurrent batches) over
  /// before/after differencing. The queue-depth high-water mark can be
  /// restarted with ResetMaxQueueDepth() (legacy single-batch scoping).
  struct Stats {
    /// Tasks executed to completion (by workers or helping callers).
    std::uint64_t tasks_executed = 0;
    /// Tasks a worker took from another worker's deque.
    std::uint64_t steals = 0;
    /// Times any worker parked idle on the wake condition variable.
    std::uint64_t idle_parks = 0;
    /// Maximum depth any single queue reached at submission time, since
    /// construction or the last ResetMaxQueueDepth().
    std::size_t max_queue_depth = 0;
    /// Per-worker breakdown, indexed by worker. Helping external threads
    /// count in the totals above but not here.
    std::vector<WorkerStats> workers;
  };

  /// Tags all tasks submitted by the current thread (and, transitively,
  /// by pool workers while running those tasks — nested submissions
  /// inherit the tag of the task that spawned them) with a
  /// BatchMetrics. RAII: restores the previous tag on destruction, so
  /// scopes nest. The scope is thread-local state, not pool state — it
  /// is valid to hold scopes for different batches on different threads
  /// of one pool simultaneously; that is the point.
  class BatchMetricsScope {
   public:
    explicit BatchMetricsScope(BatchMetrics* metrics);
    ~BatchMetricsScope();
    BatchMetricsScope(const BatchMetricsScope&) = delete;
    BatchMetricsScope& operator=(const BatchMetricsScope&) = delete;

   private:
    BatchMetrics* previous_;
  };

  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Waits for all submitted tasks to finish, then stops and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker. The task is tagged
  /// with the calling thread's active BatchMetricsScope, if any.
  void Submit(std::function<void()> task);

  /// Runs one queued task on the calling thread if one is available;
  /// returns whether a task was run. Lets blocked callers help drain the
  /// pool instead of idling (used by TaskGroup::Wait).
  bool TryRunOneTask();

  /// Snapshot of the counters (see the class-level memory-order
  /// contract for what a concurrent snapshot means).
  Stats stats() const;

  /// Restarts the queue-depth high-water mark from 0 and returns the
  /// value it had. Legacy batch scoping — new code should scope all pool
  /// metrics at once with a BatchMetricsScope instead.
  std::size_t ResetMaxQueueDepth();

  /// Tasks currently sitting in some queue, not yet picked up (relaxed
  /// instantaneous read — the admission controller's backlog watermark;
  /// see QueryEngine). Distinct from the high-water mark above: this is
  /// "how deep is the backlog right now", not "how deep did it get".
  std::size_t queued_tasks() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Submitted tasks not yet finished (queued + running). The admission
  /// controller uses this to tell an idle pool from a saturated one.
  std::size_t pending_tasks() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  /// A queued task plus the batch it is attributed to (null = untagged).
  struct Task {
    std::function<void()> fn;
    BatchMetrics* batch = nullptr;
  };

  /// One worker's deque plus its counters, cache-line separated so
  /// relaxed per-worker increments never contend across workers.
  struct alignas(64) WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
    std::atomic<std::uint64_t> tasks_executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> idle_parks{0};
  };

  void WorkerLoop(std::size_t index);
  void RunTask(Task& task);
  bool PopOwn(std::size_t index, Task* task);
  bool PopGlobal(Task* task);
  bool Steal(std::size_t thief, Task* task);
  void NoteQueueDepth(std::size_t depth, BatchMetrics* batch);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  std::vector<std::thread> workers_;

  std::mutex global_mu_;
  std::deque<Task> global_;  // injection queue
  std::condition_variable wake_;

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> queued_{0};   // tasks sitting in some queue
  std::atomic<std::size_t> pending_{0};  // submitted but not yet finished
  // Workers registered as (about to be) parked on wake_. Submit() skips
  // the wake fence entirely while this is 0 (the common busy case).
  std::atomic<std::size_t> idle_workers_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;  // notified when pending_ reaches 0

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> max_queue_depth_{0};
};

/// Tracks completion of a set of tasks running on a ThreadPool.
///
/// Wait() blocks until every Run() task finished, helping execute queued
/// pool tasks in the meantime (so nested groups — a pool task that forks
/// its own group — cannot deadlock), and rethrows the first exception any
/// task of this group threw.
class TaskGroup {
 public:
  /// A null pool runs tasks inline on the calling thread.
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Precondition on destruction: Wait() has returned (asserted).
  ~TaskGroup();

  /// Schedules `fn` on the pool (or runs it inline without a pool).
  void Run(std::function<void()> fn);

  /// Blocks until all Run() tasks finished; rethrows the first captured
  /// task exception.
  void Wait();

 private:
  void Finish(std::exception_ptr error);

  ThreadPool* pool_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  // guarded by mu_; first failure wins
};

}  // namespace pxml

#endif  // PXML_UTIL_THREAD_POOL_H_
