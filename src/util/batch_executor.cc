#include "util/batch_executor.h"

#include <algorithm>

namespace pxml {

struct BatchExecutor::Job {
  Job(std::size_t n, const void* fn, CallFn call) : n(n), fn(fn), call(call) {}

  const std::size_t n;
  const void* const fn;
  const CallFn call;
  /// The next index to hand out; claims past n find the job drained.
  std::atomic<std::size_t> next{0};
  // Guarded by mu_.
  std::size_t finished = 0;  // calls that have returned
  std::size_t workers = 0;   // workers inside Drain
  std::exception_ptr error;  // the first one booked
  std::condition_variable done_cv;
};

BatchExecutor::BatchExecutor(std::size_t workers) {
  threads_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    Stop();  // a failed spawn must not leave joinable threads behind
    throw;
  }
}

BatchExecutor::~BatchExecutor() { Stop(); }

void BatchExecutor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t BatchExecutor::Drain(Job& job, std::exception_ptr& error) {
  std::size_t ran = 0;
  for (std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
       i < job.n; i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    unclaimed_.fetch_sub(1, std::memory_order_relaxed);
    try {
      job.call(job.fn, i);
    } catch (...) {
      if (error == nullptr) error = std::current_exception();
    }
    ++ran;
  }
  return ran;
}

void BatchExecutor::Leave(Job& job, std::size_t ran,
                          std::exception_ptr error) {
  const auto it = std::find(jobs_.begin(), jobs_.end(), &job);
  if (it != jobs_.end()) jobs_.erase(it);
  job.finished += ran;
  if (job.error == nullptr) job.error = std::move(error);
}

void BatchExecutor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) return;
    Job& job = *jobs_.front();
    ++job.workers;
    lock.unlock();
    std::exception_ptr error;
    const std::size_t ran = Drain(job, error);
    lock.lock();
    Leave(job, ran, std::move(error));
    // Notified under mu_: the caller cannot wake, return and destroy
    // the job before this thread lets go of the mutex.
    if (--job.workers == 0 && job.finished == job.n) job.done_cv.notify_one();
  }
}

void BatchExecutor::RunJob(std::size_t n, const void* fn, CallFn call) {
  if (n == 0) return;
  Job job(n, fn, call);
  if (threads_.empty()) {
    unclaimed_.fetch_add(n, std::memory_order_relaxed);
    std::exception_ptr error;
    Drain(job, error);
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
    unclaimed_.fetch_add(n, std::memory_order_relaxed);
  }
  // The caller takes one index itself, so at most n - 1 workers help.
  for (std::size_t k = std::min(n - 1, threads_.size()); k > 0; --k) {
    work_cv_.notify_one();
  }
  std::exception_ptr error;
  const std::size_t ran = Drain(job, error);
  std::unique_lock<std::mutex> lock(mu_);
  Leave(job, ran, std::move(error));
  job.done_cv.wait(
      lock, [&job] { return job.workers == 0 && job.finished == job.n; });
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

}  // namespace pxml
