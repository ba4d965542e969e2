//===- core/SweepRunner.cpp -----------------------------------------------===//

#include "core/SweepRunner.h"

#include "common/Log.h"
#include "common/ThreadPool.h"
#include "common/WallTimer.h"
#include "core/ResultStore.h"
#include "obs/Json.h"
#include "trace/ComputeBlock.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>

using namespace hetsim;

std::string SweepTelemetry::summary() const {
  char Buffer[352];
  std::snprintf(Buffer, sizeof(Buffer),
                "sweep: %llu points in %.3f s (%.1f points/s, %.3g sim-ns "
                "per wall-s, gen %.3f s / sim %.3f s, longest point "
                "%.3f s, jobs=%u from %s)",
                static_cast<unsigned long long>(Points), WallSeconds,
                pointsPerSecond(), simNsPerWallSecond(),
                traceGenWallSeconds(), simulateSeconds(), MaxPointSeconds,
                Jobs, JobsSource.c_str());
  return Buffer;
}

std::vector<size_t> hetsim::dispatchOrder(const std::vector<uint64_t> &Records,
                                          unsigned Jobs) {
  std::vector<size_t> Order(Records.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  if (Jobs > 1)
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Records[A] > Records[B];
    });
  return Order;
}

SweepRunner::SweepRunner(unsigned JobCount) {
  JobsChoice Choice = ThreadPool::resolveJobs(JobCount);
  Jobs = Choice.Jobs;
  JobsSource = Choice.Source;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &Points) {
  std::vector<RunResult> Results(Points.size());
  Metrics.assign(Points.size(), MetricsSnapshot());

  ResultStore Store =
      StoreDir.empty() ? ResultStore::fromEnvironment() : ResultStore(StoreDir);

  WallTimer Timer;

  // Lower here, on the calling thread: lowering builds recipes, not
  // records, and each point's record count orders the dispatch.
  std::vector<LoweredProgram> Programs;
  std::vector<uint64_t> Records;
  Programs.reserve(Points.size());
  Records.reserve(Points.size());
  for (const SweepPoint &Point : Points) {
    Programs.push_back(lowerKernel(Point.Kernel, Point.Config));
    uint64_t Count = 0;
    for (const ExecStep &Step : Programs.back().Steps)
      Count += Step.CpuTrace.size() + Step.GpuTrace.size();
    Records.push_back(Count);
  }
  std::vector<size_t> Order = dispatchOrder(Records, Jobs);

  // Per-worker phase counters. Worker ids from parallelForWorkers are
  // stable in [0, min(Points, Jobs)), so each worker owns one slot and
  // no atomics are needed.
  struct WorkerCounters {
    uint64_t BusyNs = 0;
    uint64_t GenNs = 0;
    uint64_t MaxPointNs = 0;
  };
  std::vector<WorkerCounters> Workers(
      std::max<size_t>(1, std::min(Points.size(), size_t(Jobs))));

  {
    ThreadPool Pool(Jobs);
    Pool.parallelForWorkers(Points.size(), [&](size_t Slot, unsigned Worker) {
      size_t I = Order[Slot];
      const SystemConfig &Config = Points[I].Config;
      const LoweredProgram &Program = Programs[I];

      // Diff this thread's own gen clock around the point (a worker
      // thread only ever runs one point at a time, so the diff attributes
      // exactly this point's work to this worker; a round's helper thread
      // credits its share back to this thread).
      auto BusyStart = std::chrono::steady_clock::now();
      uint64_t GenStart = threadTraceGenNanos();

      // A disabled store misses without looking at the key, so the
      // hash is computed only when it is read.
      ResultStore::Key K;
      ResultStore::Entry E;
      if (Store.enabled())
        K = ResultStore::keyFor(Config, Program);
      if (!Store.load(K, E)) {
        HeteroSimulator Simulator(Config);
        E.Result = Simulator.runLowered(Program);
        // Snapshot while the simulator (and its memory system) is alive.
        E.Metrics = Simulator.collectMetrics(E.Result);
        Store.save(K, E); // A no-op when the store is disabled.
      }
      // Each worker writes only its own slots.
      Results[I] = std::move(E.Result);
      Metrics[I] = std::move(E.Metrics);

      WorkerCounters &C = Workers[Worker];
      uint64_t PointNs =
          uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - BusyStart)
                       .count());
      C.BusyNs += PointNs;
      C.MaxPointNs = std::max(C.MaxPointNs, PointNs);
      C.GenNs += threadTraceGenNanos() - GenStart;
    });
  }

  if (const char *Env = std::getenv("HETSIM_METRICS_JSON"))
    if (Env[0] != '\0' &&
        !writeTextFile(Env, renderSweepMetricsJson(Points, Metrics) + "\n"))
      logWarning("cannot write sweep metrics to %s", Env);

  Telemetry = SweepTelemetry();
  Telemetry.Jobs = Jobs;
  Telemetry.JobsSource = JobsSource;
  Telemetry.Points = Points.size();
  Telemetry.WallSeconds = Timer.elapsedSeconds();
  for (const WorkerCounters &C : Workers) {
    Telemetry.BusySeconds += double(C.BusyNs) * 1e-9;
    Telemetry.TraceGenSeconds += double(C.GenNs) * 1e-9;
    Telemetry.MaxPointSeconds =
        std::max(Telemetry.MaxPointSeconds, double(C.MaxPointNs) * 1e-9);
  }
  Telemetry.StoreHits = Store.hits();
  Telemetry.StoreMisses = Store.misses();
  for (const RunResult &Result : Results)
    Telemetry.SimNsTotal += Result.Time.totalNs();
  return Results;
}

std::string
hetsim::renderSweepMetricsJson(const std::vector<SweepPoint> &Points,
                               const std::vector<MetricsSnapshot> &Metrics) {
  JsonWriter W;
  W.beginObject();
  W.value("schema", "hetsim-sweep-metrics-v1");
  W.beginArray("points");
  for (size_t I = 0; I != Metrics.size(); ++I) {
    W.beginObject();
    if (I < Points.size()) {
      W.value("system", Points[I].Config.Name);
      W.value("kernel", kernelName(Points[I].Kernel));
    }
    appendMetricsObject(W, "metrics", Metrics[I]);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

bool hetsim::appendBenchTiming(const std::string &Bench,
                               const SweepTelemetry &T) {
  std::string Path = "out/bench_timing.json";
  if (const char *Env = std::getenv("HETSIM_TIMING_JSON"))
    if (Env[0] != '\0')
      Path = Env;

  std::error_code Ec;
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (!Parent.empty())
    std::filesystem::create_directories(Parent, Ec);

  std::FILE *File = std::fopen(Path.c_str(), "a");
  if (!File) {
    logWarning("cannot append bench timing to %s", Path.c_str());
    return false;
  }
  // One JSON object per line (JSON-lines), fixed key order for easy
  // grepping from shell scripts.
  std::fprintf(File,
               "{\"bench\":\"%s\",\"points\":%llu,\"jobs\":%u,"
               "\"wall_s\":%.6f,\"points_per_s\":%.3f,"
               "\"sim_ns_per_wall_s\":%.1f,"
               "\"jobs_source\":\"%s\",\"trace_gen_s\":%.6f,"
               "\"simulate_s\":%.6f,"
               "\"store_hits\":%llu,\"store_misses\":%llu,"
               "\"max_point_s\":%.6f}\n",
               Bench.c_str(), static_cast<unsigned long long>(T.Points),
               T.Jobs, T.WallSeconds, T.pointsPerSecond(),
               T.simNsPerWallSecond(), T.JobsSource.c_str(),
               T.traceGenWallSeconds(), T.simulateSeconds(),
               static_cast<unsigned long long>(T.StoreHits),
               static_cast<unsigned long long>(T.StoreMisses),
               T.MaxPointSeconds);
  std::fclose(File);
  return true;
}
