#include "util/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/metrics.h"

namespace pxml {

namespace {

/// Identifies the pool worker running on the current thread, if any, so
/// Submit() can route to the worker's own deque.
struct WorkerTls {
  ThreadPool* pool = nullptr;
  std::size_t index = 0;
};

thread_local WorkerTls tls;

/// The BatchMetrics tasks submitted by this thread are attributed to.
/// Set by BatchMetricsScope on external callers and by RunTask while a
/// tagged task executes (so nested submissions inherit the batch).
thread_local BatchMetrics* tls_batch = nullptr;

/// Process-wide mirrors of the pool counters. Cumulative across all
/// pools; the per-pool stats() and per-batch BatchMetrics remain the
/// attribution mechanisms.
obs::Counter& PoolTasksCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.pool.tasks_executed");
  return c;
}
obs::Counter& PoolStealsCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.pool.steals");
  return c;
}
obs::Counter& PoolIdleParksCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.pool.idle_parks");
  return c;
}

/// Raises `hwm` to `depth` if larger (relaxed CAS loop; a high-water
/// mark needs no ordering, only atomicity).
void RaiseHighWaterMark(std::atomic<std::size_t>& hwm, std::size_t depth) {
  std::size_t seen = hwm.load(std::memory_order_relaxed);
  while (depth > seen &&
         !hwm.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

}  // namespace

ThreadPool::BatchMetricsScope::BatchMetricsScope(BatchMetrics* metrics)
    : previous_(tls_batch) {
  tls_batch = metrics;
}

ThreadPool::BatchMetricsScope::~BatchMetricsScope() { tls_batch = previous_; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  queues_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait(lk, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: pairs with the waiters' check-then-wait so
    // the notification cannot slip between a worker's check and its wait.
    std::lock_guard<std::mutex> lk(global_mu_);
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::NoteQueueDepth(std::size_t depth, BatchMetrics* batch) {
  RaiseHighWaterMark(max_queue_depth_, depth);
  if (batch != nullptr) RaiseHighWaterMark(batch->max_queue_depth, depth);
}

void ThreadPool::Submit(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  Task entry{std::move(task), tls_batch};
  BatchMetrics* batch = entry.batch;
  if (tls.pool == this) {
    WorkerQueue& q = *queues_[tls.index];
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lk(q.mu);
      q.tasks.push_back(std::move(entry));
      depth = q.tasks.size();
    }
    NoteQueueDepth(depth, batch);
  } else {
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lk(global_mu_);
      global_.push_back(std::move(entry));
      depth = global_.size();
    }
    NoteQueueDepth(depth, batch);
  }
  // Publish the task before reading idle_workers_ (Dekker-style pairing
  // with WorkerLoop, which registers idle before re-checking queued_): at
  // least one side observes the other, so either the worker sees the task
  // and skips the wait, or we see the idle worker and wake it.
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (idle_workers_.load(std::memory_order_seq_cst) > 0) {
    {
      // Empty critical section: a worker between registering idle and
      // waiting still holds global_mu_, so this acquisition cannot
      // complete before it is parked and able to receive the notify.
      std::lock_guard<std::mutex> lk(global_mu_);
    }
    wake_.notify_one();
  }
}

bool ThreadPool::PopOwn(std::size_t index, Task* task) {
  WorkerQueue& q = *queues_[index];
  std::lock_guard<std::mutex> lk(q.mu);
  if (q.tasks.empty()) return false;
  *task = std::move(q.tasks.back());
  q.tasks.pop_back();
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool ThreadPool::PopGlobal(Task* task) {
  std::lock_guard<std::mutex> lk(global_mu_);
  if (global_.empty()) return false;
  *task = std::move(global_.front());
  global_.pop_front();
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

bool ThreadPool::Steal(std::size_t thief, Task* task) {
  const std::size_t n = queues_.size();
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t index = (thief + 1 + d) % n;  // wraps for external
    if (index == thief) continue;
    WorkerQueue& victim = *queues_[index];
    {
      std::lock_guard<std::mutex> lk(victim.mu);
      if (victim.tasks.empty()) continue;
      *task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    PoolStealsCounter().Increment();
    if (thief < queues_.size()) {
      queues_[thief]->steals.fetch_add(1, std::memory_order_relaxed);
    }
    if (task->batch != nullptr) {
      task->batch->steals.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  return false;
}

void ThreadPool::RunTask(Task& task) {
  // Executing a tagged task makes its batch the ambient batch for any
  // submissions the task itself performs (nested task groups),
  // so a whole batch's task tree shares one BatchMetrics without the
  // batch pointer threading through every user-level callback.
  BatchMetricsScope scope(task.batch);
  // All accounting happens BEFORE the task body runs: the batch's
  // TaskGroup waiter can return the instant the last fn completes, and
  // the BatchMetrics object (stack-allocated in the submitter) may die
  // with it — a post-fn bump would write into a dead object. Counting a
  // task at dispatch rather than completion is indistinguishable after
  // the quiesce the memory-order contract already requires.
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  PoolTasksCounter().Increment();
  if (tls.pool == this) {
    queues_[tls.index]->tasks_executed.fetch_add(1, std::memory_order_relaxed);
  }
  if (task.batch != nullptr) {
    task.batch->tasks.fetch_add(1, std::memory_order_relaxed);
  }
  task.fn();
  task.fn = nullptr;  // release captures before the pending_ handshake
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_all();
  }
}

bool ThreadPool::TryRunOneTask() {
  Task task;
  bool got = (tls.pool == this)
                 ? (PopOwn(tls.index, &task) || PopGlobal(&task) ||
                    Steal(tls.index, &task))
                 : (PopGlobal(&task) ||
                    Steal(static_cast<std::size_t>(-1), &task));
  if (!got) return false;
  RunTask(task);
  return true;
}

void ThreadPool::WorkerLoop(std::size_t index) {
  tls.pool = this;
  tls.index = index;
  Task task;
  while (true) {
    if (PopOwn(index, &task) || PopGlobal(&task) || Steal(index, &task)) {
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lk(global_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    if (queued_.load(std::memory_order_acquire) > 0) continue;
    // Register idle, then re-check for work published in the meantime:
    // the seq_cst pairing with Submit() guarantees a submitter that
    // missed our registration is itself seen here, so no wakeup is lost.
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    if (queued_.load(std::memory_order_seq_cst) > 0) {
      idle_workers_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    queues_[index]->idle_parks.fetch_add(1, std::memory_order_relaxed);
    PoolIdleParksCounter().Increment();
    // Bounded wait purely as defense in depth; the protocol above makes
    // lost wakeups impossible (as does the empty critical section in
    // ~ThreadPool() for the stop signal).
    wake_.wait_for(lk, std::chrono::milliseconds(50));
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::size_t ThreadPool::ResetMaxQueueDepth() {
  return max_queue_depth_.exchange(0, std::memory_order_relaxed);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.workers.reserve(queues_.size());
  for (const auto& q : queues_) {
    WorkerStats w;
    w.tasks_executed = q->tasks_executed.load(std::memory_order_relaxed);
    w.steals = q->steals.load(std::memory_order_relaxed);
    w.idle_parks = q->idle_parks.load(std::memory_order_relaxed);
    s.idle_parks += w.idle_parks;
    s.workers.push_back(w);
  }
  return s;
}

TaskGroup::~TaskGroup() {
  assert(pending_.load(std::memory_order_acquire) == 0 &&
         "TaskGroup destroyed before Wait()");
}

void TaskGroup::Finish(std::exception_ptr error) {
  // The decrement must happen with mu_ held: Wait() always re-acquires
  // mu_ after observing pending_ == 0, so it cannot return (and let the
  // caller destroy this stack-allocated group) until the last finisher
  // has released the lock and stopped touching members.
  std::lock_guard<std::mutex> lk(mu_);
  if (error != nullptr && error_ == nullptr) error_ = std::move(error);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (pool_ == nullptr) {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    Finish(error);
    return;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    Finish(error);
  });
}

void TaskGroup::Wait() {
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (pool_ != nullptr && pool_->TryRunOneTask()) continue;
    std::unique_lock<std::mutex> lk(mu_);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace pxml
