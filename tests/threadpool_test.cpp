//===- tests/threadpool_test.cpp - ThreadPool unit tests ------------------===//
///
/// \file
/// Lifecycle, exception propagation, parallelFor bounds and HETSIM_JOBS
/// resolution coverage for the sweep engine's worker pool.
///
//===----------------------------------------------------------------------===//

#include "common/ThreadPool.h"
#include "core/SweepRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace hetsim;

namespace {

/// RAII helper: set an environment variable for one test, restore after.
class ScopedEnv {
public:
  ScopedEnv(const char *Var, const char *Value) : Name(Var) {
    const char *Old = std::getenv(Var);
    if (Old) {
      HadOld = true;
      OldValue = Old;
    }
    ::setenv(Var, Value, 1);
  }
  ~ScopedEnv() {
    if (HadOld)
      ::setenv(Name, OldValue.c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  bool HadOld = false;
  std::string OldValue;
};

/// Sets HETSIM_JOBS to \p Value and checks that ThreadPool and
/// SweepRunner, which share one parser, both resolve it to \p Jobs from
/// \p Source.
void expectJobsFromEnv(const char *Value, unsigned Jobs,
                       const char *Source) {
  ScopedEnv Env("HETSIM_JOBS", Value);
  JobsChoice Choice = ThreadPool::resolveJobs(0);
  EXPECT_EQ(Choice.Jobs, Jobs) << Value;
  EXPECT_STREQ(Choice.Source, Source) << Value;
  EXPECT_EQ(ThreadPool(0).jobs(), Jobs) << Value;

  SweepRunner Runner(0);
  Runner.run({});
  EXPECT_EQ(Runner.telemetry().Jobs, Jobs) << Value;
  EXPECT_EQ(Runner.telemetry().JobsSource, Source) << Value;
}

TEST(ThreadPool, DefaultJobsReadsEnv) {
  expectJobsFromEnv("3", 3, "HETSIM_JOBS");
  // An explicit count wins over the environment.
  ScopedEnv Env("HETSIM_JOBS", "3");
  JobsChoice Explicit = ThreadPool::resolveJobs(5);
  EXPECT_EQ(Explicit.Jobs, 5u);
  EXPECT_STREQ(Explicit.Source, "explicit");
}

TEST(ThreadPool, DefaultJobsIgnoresInvalidEnv) {
  const unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  expectJobsFromEnv("0", Hardware, "hardware");
  expectJobsFromEnv("not-a-number", Hardware, "hardware");
}

TEST(ThreadPool, ConstructDestroyWithoutWork) {
  // Pools must shut their workers down cleanly even when never used.
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Jobs);
    EXPECT_EQ(Pool.jobs(), Jobs);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr size_t N = 1000;
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Counts(N);
  Pool.parallelFor(N, [&](size_t I) {
    ASSERT_LT(I, N);
    Counts[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForZeroIterationsRunsNothing) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  Pool.parallelFor(0, [&](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ThreadPool, ParallelForSingleIterationRunsInline) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  Pool.parallelFor(1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    Calls.fetch_add(1);
  });
  EXPECT_EQ(Calls.load(), 1);
}

TEST(ThreadPool, MoreWorkersThanIterations) {
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Counts(3);
  Pool.parallelFor(3, [&](size_t I) { Counts[I].fetch_add(1); });
  for (size_t I = 0; I != 3; ++I)
    EXPECT_EQ(Counts[I].load(), 1);
}

TEST(ThreadPool, SerialFallbackPreservesOrder) {
  // jobs=1 must execute 0..N-1 in order on the calling thread.
  ThreadPool Pool(1);
  std::vector<size_t> Seen;
  Pool.parallelFor(16, [&](size_t I) { Seen.push_back(I); });
  std::vector<size_t> Expected(16);
  std::iota(Expected.begin(), Expected.end(), size_t(0));
  EXPECT_EQ(Seen, Expected);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(64,
                                [&](size_t I) {
                                  if (I == 7)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionInSerialModePropagates) {
  ThreadPool Pool(1);
  EXPECT_THROW(
      Pool.parallelFor(4, [&](size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool Pool(4);
  try {
    Pool.parallelFor(32, [&](size_t) { throw std::runtime_error("boom"); });
    FAIL() << "expected exception";
  } catch (const std::runtime_error &) {
  }
  std::atomic<size_t> Sum{0};
  Pool.parallelFor(100, [&](size_t I) { Sum.fetch_add(I + 1); });
  EXPECT_EQ(Sum.load(), 5050u);
}

TEST(ThreadPool, ReusedAcrossManyCalls) {
  ThreadPool Pool(4);
  for (int Round = 0; Round != 10; ++Round) {
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(64, [&](size_t I) { Sum.fetch_add(I); });
    EXPECT_EQ(Sum.load(), 64u * 63u / 2);
  }
}

// Shared-cursor dispatch: parallelForWorkers must cover every index
// exactly once at any (N, jobs) shape, hand each share a stable worker id
// in [0, min(N, jobs)), and start indices in index order.

TEST(ThreadPool, WorkersCoverEveryIndexExactlyOnce) {
  const size_t N = 501;
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Counts(N);
  std::atomic<unsigned> MaxWorker{0};
  Pool.parallelForWorkers(N, [&](size_t I, unsigned Worker) {
    Counts[I].fetch_add(1);
    unsigned Seen = MaxWorker.load();
    while (Worker > Seen && !MaxWorker.compare_exchange_weak(Seen, Worker)) {
    }
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
  EXPECT_LT(MaxWorker.load(), 4u);
}

TEST(ThreadPool, WorkersSingleJobRunsInlineAsWorkerZero) {
  ThreadPool Pool(1);
  std::vector<size_t> Order;
  Pool.parallelForWorkers(16, [&](size_t I, unsigned Worker) {
    EXPECT_EQ(Worker, 0u);
    Order.push_back(I);
  });
  ASSERT_EQ(Order.size(), 16u);
  for (size_t I = 0; I != Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPool, WorkersIdBoundedByIterationCount) {
  // 3 indices on an 8-thread pool: only min(N, jobs) shares exist.
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Counts(3);
  Pool.parallelForWorkers(3, [&](size_t I, unsigned Worker) {
    EXPECT_LT(Worker, 3u);
    Counts[I].fetch_add(1);
  });
  for (auto &Count : Counts)
    EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPool, WorkersClaimIndicesFromOneCursor) {
  // Index 0 blocks until index 1 has started. With one shared cursor, 2
  // is claimed only after 1, and the worker that claims 1 records it
  // before it can claim again (the worker holding 0 waits for 1), so 1
  // is recorded before 2 in every interleaving. With per-worker
  // contiguous ranges the second worker would start 2 first. Where 0 is
  // recorded is not fixed: its worker may take the mutex last.
  const size_t N = 4;
  ThreadPool Pool(2);
  std::mutex Mutex;
  std::condition_variable Started;
  std::vector<size_t> StartOrder;
  bool OneStarted = false;
  bool TimedOut = false;
  Pool.parallelForWorkers(N, [&](size_t I, unsigned) {
    std::unique_lock<std::mutex> Lock(Mutex);
    StartOrder.push_back(I);
    if (I == 1) {
      OneStarted = true;
      Started.notify_all();
    } else if (I == 0) {
      TimedOut = !Started.wait_for(Lock, std::chrono::seconds(10),
                                   [&] { return OneStarted; });
    }
  });
  EXPECT_FALSE(TimedOut);
  ASSERT_EQ(StartOrder.size(), N);
  auto PositionOf = [&](size_t I) {
    return std::find(StartOrder.begin(), StartOrder.end(), I) -
           StartOrder.begin();
  };
  EXPECT_LT(PositionOf(1), PositionOf(2));
  std::sort(StartOrder.begin(), StartOrder.end());
  EXPECT_EQ(StartOrder, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, WorkersZeroIterationsRunNothing) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  Pool.parallelForWorkers(0, [&](size_t, unsigned) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ThreadPool, WorkersExceptionPropagatesAndPoolSurvives) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelForWorkers(
                   64,
                   [](size_t I, unsigned) {
                     if (I == 17)
                       throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  std::atomic<size_t> Sum{0};
  Pool.parallelForWorkers(100, [&](size_t I, unsigned) {
    Sum.fetch_add(I + 1);
  });
  EXPECT_EQ(Sum.load(), 5050u);
}

} // namespace
