// Work-sharing thread pool for the corner-sweep engine.
//
// The pool runs parallel index loops: parallel_for(n, fn) executes
// fn(index, worker) for every index in [0, n), partitioning the range
// dynamically — each worker claims the next unclaimed index from a shared
// atomic cursor, so a slow corner (a hard Newton solve, a long record)
// never leaves the other workers idle behind a static split. This is the
// degenerate chunk-size-1 form of chunked self-scheduling; corners cost
// milliseconds, so cursor contention is noise.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emc::sweep {

/// Per-worker utilization accounting, accumulated across parallel_for
/// epochs. busy_ns counts time inside fn invocations (measured per
/// claimed chunk); idle_ns is the remainder of each epoch's wall time the
/// worker did not spend busy — waiting to wake, waiting on the cursor, or
/// finished early behind a slow tail. busy_ns + idle_ns sums to (epochs x
/// epoch wall time) per worker up to clock granularity, which is what the
/// accounting test gates on.
struct WorkerStats {
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t items = 0;   ///< loop indices this worker executed
  std::uint64_t epochs = 0;  ///< parallel_for calls observed

  /// Worker exceptions swallowed by this worker's drain because another
  /// exception was already captured for the epoch (only the first is
  /// rethrown). Nonzero means failures beyond the one reported.
  std::uint64_t suppressed = 0;
};

/// Fixed-size pool of persistent workers. The calling thread participates
/// as worker 0, so ThreadPool(1) spawns no threads at all and runs every
/// loop inline — the serial reference that parallel runs must match
/// bit-for-bit. Worker ids are stable across calls and index per-worker
/// scratch (see sweep::Workspace).
class ThreadPool {
 public:
  /// `workers` including the calling thread; clamped to >= 1.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return n_workers_; }

  /// Run fn(index, worker) for every index in [0, n); blocks until all
  /// indices completed. Workers claim aligned blocks of `chunk`
  /// consecutive indices (chunk 1 = pure dynamic self-scheduling; a
  /// larger chunk keeps indices that share cacheable work on one worker,
  /// e.g. sweep corners differing only in post-processing axes). If any
  /// invocation throws, the loop still drains (every index is claimed and
  /// run — no deadlock, the pool stays usable) and the first captured
  /// exception is rethrown on the caller with its type preserved. Further
  /// exceptions in the same epoch are counted, not lost: each shows up in
  /// its worker's WorkerStats::suppressed, and when any were suppressed
  /// the rethrow is converted to a std::runtime_error carrying the first
  /// exception's message plus the suppressed count. Not reentrant: fn
  /// must not call parallel_for on the same pool.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t chunk = 1);

  /// Sensible default worker count: the CPUs in the calling thread's
  /// affinity mask, capped by hardware_concurrency, at least 1.
  static std::size_t default_workers();

  /// Utilization of every worker (index = worker id), accumulated since
  /// construction or the last reset. Call between loops, not during one.
  std::vector<WorkerStats> worker_stats() const;
  void reset_worker_stats();

 private:
  void worker_loop(std::size_t worker);
  void drain(std::size_t worker);

  std::size_t n_workers_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable start_cv_;  ///< job published / shutdown
  std::condition_variable done_cv_;   ///< helper finished the current job
  std::uint64_t epoch_ = 0;           ///< bumps once per parallel_for
  std::size_t active_ = 0;            ///< helpers still draining this epoch
  bool stop_ = false;

  // Current job; written under mu_ before the epoch bump, read by helpers
  // after observing the bump (mutex hand-off orders the accesses).
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunk_ = 1;
  std::atomic<std::size_t> cursor_{0};  ///< next unclaimed chunk id

  // Per-epoch scratch (owner-only writes in drain, folded into stats_ by
  // the caller after the epoch barrier) and the accumulated totals.
  std::vector<std::uint64_t> epoch_busy_ns_;
  std::vector<std::uint64_t> epoch_items_;
  std::vector<std::uint64_t> epoch_suppressed_;
  std::vector<WorkerStats> stats_;

  std::mutex err_mu_;
  std::exception_ptr error_;
};

}  // namespace emc::sweep
