#include "sweep/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace emc::sweep {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers)
    : n_workers_(std::max<std::size_t>(1, workers)) {
  epoch_busy_ns_.assign(n_workers_, 0);
  epoch_items_.assign(n_workers_, 0);
  epoch_suppressed_.assign(n_workers_, 0);
  stats_.assign(n_workers_, WorkerStats{});
  threads_.reserve(n_workers_ - 1);
  for (std::size_t w = 1; w < n_workers_; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ThreadPool::default_workers() {
  std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  // hardware_concurrency counts the host's CPUs, not the ones this thread
  // may run on (taskset, a container's cpuset): cap by the affinity mask.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    n = std::min<std::size_t>(n, static_cast<std::size_t>(std::max(1, CPU_COUNT(&set))));
  return n;
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ThreadPool::reset_worker_stats() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.assign(n_workers_, WorkerStats{});
}

void ThreadPool::drain(std::size_t worker) {
  std::uint64_t busy = 0;
  std::uint64_t items = 0;
  std::uint64_t suppressed = 0;
  for (;;) {
    const std::size_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t lo = c * job_chunk_;
    if (lo >= job_n_) break;
    const std::size_t hi = std::min(job_n_, lo + job_chunk_);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        (*job_)(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu_);
        if (!error_)
          error_ = std::current_exception();
        else
          ++suppressed;
      }
    }
    busy += now_ns() - t0;
    items += hi - lo;
  }
  // Owner-only writes; the caller folds them into stats_ after the epoch
  // barrier (the mutex hand-off orders these against that read).
  epoch_busy_ns_[worker] = busy;
  epoch_items_[worker] = items;
  epoch_suppressed_[worker] = suppressed;
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    start_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    lk.unlock();
    drain(worker);
    lk.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t chunk) {
  if (n == 0) return;
  const std::uint64_t t_epoch = now_ns();
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_n_ = n;
    job_chunk_ = std::max<std::size_t>(1, chunk);
    cursor_.store(0, std::memory_order_relaxed);
    std::fill(epoch_busy_ns_.begin(), epoch_busy_ns_.end(), 0);
    std::fill(epoch_items_.begin(), epoch_items_.end(), 0);
    std::fill(epoch_suppressed_.begin(), epoch_suppressed_.end(), 0);
    active_ = n_workers_ - 1;
    ++epoch_;
  }
  start_cv_.notify_all();

  drain(0);  // the caller is worker 0

  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_ == 0; });
  job_ = nullptr;
  job_n_ = 0;
  // Fold the epoch into the running totals: whatever part of the epoch's
  // wall time a worker did not spend busy, it spent idle (waking up,
  // waiting on the cursor, or done early behind a slow tail).
  const std::uint64_t epoch_ns = now_ns() - t_epoch;
  std::uint64_t suppressed = 0;
  for (std::size_t w = 0; w < n_workers_; ++w) {
    const std::uint64_t busy = std::min(epoch_busy_ns_[w], epoch_ns);
    stats_[w].busy_ns += busy;
    stats_[w].idle_ns += epoch_ns - busy;
    stats_[w].items += epoch_items_[w];
    stats_[w].suppressed += epoch_suppressed_[w];
    suppressed += epoch_suppressed_[w];
    ++stats_[w].epochs;
  }
  lk.unlock();

  std::exception_ptr first;
  {
    std::lock_guard<std::mutex> elk(err_mu_);
    first = error_;
    error_ = nullptr;
  }
  if (!first) return;
  if (suppressed == 0) std::rethrow_exception(first);
  // More than one worker threw this epoch: only the first exception
  // survives, but its message must say so — a caller reading a single
  // error otherwise believes everything else completed.
  std::string msg;
  try {
    std::rethrow_exception(first);
  } catch (const std::exception& e) {
    msg = e.what();
  } catch (...) {
    msg = "non-standard worker exception";
  }
  throw std::runtime_error(msg + " (+" + std::to_string(suppressed) +
                           " more worker exception(s) suppressed)");
}

}  // namespace emc::sweep
