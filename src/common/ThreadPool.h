//===- common/ThreadPool.h - Fixed-size worker pool -------------*- C++ -*-===//
///
/// \file
/// A fixed-size pool of std::jthread workers with a parallelFor primitive,
/// used by the sweep engine to fan independent simulations out over cores.
/// The worker count comes from the HETSIM_JOBS environment variable when
/// set, otherwise from std::thread::hardware_concurrency(). A pool of one
/// job runs everything inline on the calling thread, so jobs=1 reproduces
/// the serial harness exactly and golden-value tests can bisect
/// determinism problems between the scheduler and the models.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_THREADPOOL_H
#define HETSIM_COMMON_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hetsim {

/// A resolved worker count and where it came from.
struct JobsChoice {
  unsigned Jobs = 1;
  /// "explicit" (the caller passed a count), "HETSIM_JOBS" (environment)
  /// or "hardware" (hardware_concurrency).
  const char *Source = "explicit";
};

/// A fixed-size worker pool. Construction spawns the workers (none when
/// the job count is one); destruction stops and joins them. Pools are
/// cheap relative to any simulation, so harnesses create one per sweep.
class ThreadPool {
public:
  /// \p Jobs worker threads, resolved by resolveJobs().
  explicit ThreadPool(unsigned Jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The pool's parallelism (>= 1).
  unsigned jobs() const { return JobCount; }

  /// Resolves a requested job count: \p Requested itself when non-zero,
  /// else HETSIM_JOBS when set to a positive integer, else
  /// hardware_concurrency(), never less than 1. The one HETSIM_JOBS
  /// parser in the tree.
  static JobsChoice resolveJobs(unsigned Requested);

  /// Runs Fn(0) .. Fn(N-1), distributing indices dynamically over the
  /// workers, and blocks until every call returned. With one job (or
  /// N <= 1) the calls happen inline, in index order, on this thread.
  /// If any call throws, the first exception is rethrown here after all
  /// in-flight calls finish; remaining unstarted indices are skipped.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// Variant that also identifies the executing worker. Every worker
  /// claims the next unstarted index from one shared atomic cursor, so
  /// indices start in index order and a slow index never holds back the
  /// ones after it. \p Fn receives (index, worker) where worker is a
  /// stable id in [0, min(N, jobs())): per-worker telemetry slots index
  /// by it. Inline (worker 0, index order) when jobs() == 1 or N == 1.
  /// Exceptions behave as in parallelFor.
  void parallelForWorkers(size_t N,
                          const std::function<void(size_t, unsigned)> &Fn);

private:
  void workerLoop(const std::stop_token &Stop);

  unsigned JobCount;
  std::mutex QueueMutex;
  std::condition_variable_any QueueCv;
  std::deque<std::function<void()>> Queue;
  std::vector<std::jthread> Workers; ///< Must be declared last: its
                                     ///< destruction joins the workers
                                     ///< while the rest is still alive.
};

} // namespace hetsim

#endif // HETSIM_COMMON_THREADPOOL_H
