#include "src/eval/worker_pool.h"

#include <algorithm>

namespace hilog {

WorkerPool::WorkerPool(size_t workers) { EnsureWorkers(workers); }

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::EnsureWorkers(size_t workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (threads_.size() < workers) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

bool WorkerPool::RunOneIndex(std::unique_lock<std::mutex>& lock,
                             const std::shared_ptr<Job>& job) {
  if (job->next >= job->n) return false;
  const size_t index = job->next++;
  if (job->next >= job->n) {
    // Last index claimed: the job is no longer offerable to workers.
    auto it = std::find(jobs_.begin(), jobs_.end(), job);
    if (it != jobs_.end()) jobs_.erase(it);
  }
  lock.unlock();
  (*job->fn)(index);
  lock.lock();
  if (++job->finished == job->n) job->done_cv.notify_all();
  return true;
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    std::shared_ptr<Job> job = jobs_.front();
    RunOneIndex(lock, job);
  }
}

void WorkerPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // threads_ grows under mu_ when another caller asks Shared for more
  // workers, so even the emptiness check holds the lock.
  std::unique_lock<std::mutex> lock(mu_);
  if (n == 1 || threads_.empty()) {
    lock.unlock();
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->n = n;
  job->fn = &fn;
  jobs_.push_back(job);
  work_cv_.notify_all();
  // The caller claims indices alongside the workers, then waits for the
  // stragglers the workers took.
  while (RunOneIndex(lock, job)) {
  }
  job->done_cv.wait(lock, [&] { return job->finished == job->n; });
}

WorkerPool& WorkerPool::Shared(size_t concurrency) {
  static WorkerPool pool(0);
  if (concurrency > 1) pool.EnsureWorkers(concurrency - 1);
  return pool;
}

}  // namespace hilog
