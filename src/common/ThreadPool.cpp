//===- common/ThreadPool.cpp ----------------------------------------------===//

#include "common/ThreadPool.h"

#include <atomic>
#include <cstdlib>
#include <memory>

using namespace hetsim;

JobsChoice ThreadPool::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return {Requested, "explicit"};
  if (const char *Env = std::getenv("HETSIM_JOBS")) {
    char *End = nullptr;
    long Value = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0' && Value >= 1)
      return {static_cast<unsigned>(Value), "HETSIM_JOBS"};
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return {Hw == 0 ? 1 : Hw, "hardware"};
}

ThreadPool::ThreadPool(unsigned Jobs)
    : JobCount(resolveJobs(Jobs).Jobs) {
  if (JobCount <= 1)
    return;
  Workers.reserve(JobCount);
  for (unsigned I = 0; I != JobCount; ++I)
    Workers.emplace_back(
        [this](const std::stop_token &Stop) { workerLoop(Stop); });
}

ThreadPool::~ThreadPool() {
  for (std::jthread &Worker : Workers)
    Worker.request_stop();
  QueueCv.notify_all();
  // jthread destructors join.
}

void ThreadPool::workerLoop(const std::stop_token &Stop) {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      if (!QueueCv.wait(Lock, Stop, [this] { return !Queue.empty(); }))
        return; // Stop requested and queue drained of interest.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Fn) {
  parallelForWorkers(N, [&Fn](size_t I, unsigned) { Fn(I); });
}

void ThreadPool::parallelForWorkers(
    size_t N, const std::function<void(size_t, unsigned)> &Fn) {
  if (N == 0)
    return;
  if (JobCount <= 1 || N == 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I, 0);
    return;
  }

  /// Shared state of one parallelForWorkers: one atomic cursor every
  /// worker claims the next index from, plus completion/exception
  /// bookkeeping. Heap-allocated and shared with the queued tasks so
  /// stale queue entries can never dangle.
  struct Batch {
    const std::function<void(size_t, unsigned)> &Fn;
    const size_t Count;
    std::atomic<size_t> Next{0};
    std::atomic<bool> Abort{false};
    std::mutex Mutex;
    std::condition_variable Done;
    size_t Pending; ///< Queued shares still running.
    std::exception_ptr Error;

    Batch(const std::function<void(size_t, unsigned)> &Work, size_t N,
          size_t Shares)
        : Fn(Work), Count(N), Pending(Shares) {}

    void drain(unsigned Worker) {
      while (!Abort.load(std::memory_order_relaxed)) {
        size_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= Count)
          return;
        try {
          Fn(I, Worker);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(Mutex);
          if (!Error)
            Error = std::current_exception();
          Abort.store(true, std::memory_order_relaxed);
        }
      }
    }
  };

  size_t Shares = std::min<size_t>(N, JobCount);
  auto State = std::make_shared<Batch>(Fn, N, Shares);
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (size_t I = 0; I != Shares; ++I)
      Queue.push_back([State, I] {
        State->drain(unsigned(I));
        std::lock_guard<std::mutex> BatchLock(State->Mutex);
        if (--State->Pending == 0)
          State->Done.notify_all();
      });
  }
  QueueCv.notify_all();

  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Done.wait(Lock, [&State] { return State->Pending == 0; });
  if (State->Error)
    std::rethrow_exception(State->Error);
}
