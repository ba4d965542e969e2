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

using namespace hetsim;

std::string SweepTelemetry::summary() const {
  char Buffer[320];
  std::snprintf(Buffer, sizeof(Buffer),
                "sweep: %llu points in %.3f s (%.1f points/s, %.3g sim-ns "
                "per wall-s, gen %.3f s / sim %.3f s, jobs=%u from %s)",
                static_cast<unsigned long long>(Points), WallSeconds,
                pointsPerSecond(), simNsPerWallSecond(),
                traceGenWallSeconds(), simulateSeconds(), Jobs,
                JobsSource.c_str());
  return Buffer;
}

void SweepTelemetry::merge(const SweepTelemetry &Other) {
  Jobs = Other.Jobs;
  JobsSource = Other.JobsSource;
  Points += Other.Points;
  WallSeconds += Other.WallSeconds;
  SimNsTotal += Other.SimNsTotal;
  BusySeconds += Other.BusySeconds;
  TraceGenSeconds += Other.TraceGenSeconds;
  StoreHits += Other.StoreHits;
  StoreMisses += Other.StoreMisses;
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

  // Per-worker phase counters. Worker ids from parallelForWorkers are
  // stable in [0, min(Points, Jobs)), so each worker owns one slot and
  // no atomics are needed.
  struct WorkerCounters {
    uint64_t BusyNs = 0;
    uint64_t GenNs = 0;
  };
  std::vector<WorkerCounters> Workers(
      std::max<size_t>(1, std::min(Points.size(), size_t(Jobs))));

  WallTimer Timer;
  {
    ThreadPool Pool(Jobs);
    Pool.parallelForWorkers(Points.size(), [&](size_t I, unsigned Worker) {
      const SweepPoint &Point = Points[I];
      const SystemConfig &Config = Point.Config;

      // Diff this thread's own gen clock around the point (a worker
      // thread only ever runs one point at a time, so the diff attributes
      // exactly this point's work to this worker).
      auto BusyStart = std::chrono::steady_clock::now();
      uint64_t GenStart = threadTraceGenNanos();

      HeteroSimulator Simulator(Config);
      if (Store.enabled()) {
        LoweredProgram Program = lowerKernel(Point.Kernel, Config);
        ResultStore::Key K = ResultStore::keyFor(Config, Program);
        ResultStore::Entry E;
        if (Store.load(K, E)) {
          Results[I] = E.Result;
          Metrics[I] = E.Metrics;
        } else {
          Results[I] = Simulator.runLowered(Program);
          Metrics[I] = Simulator.collectMetrics(Results[I]);
          Store.save(K, {Results[I], Metrics[I]});
        }
      } else {
        Results[I] = Simulator.run(Point.Kernel);
        // Snapshot while the simulator (and its memory system) is alive;
        // each worker writes only its own slot.
        Metrics[I] = Simulator.collectMetrics(Results[I]);
      }

      WorkerCounters &C = Workers[Worker];
      C.BusyNs += uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - BusyStart)
                               .count());
      C.GenNs += threadTraceGenNanos() - GenStart;
    });
  }

  if (const char *Env = std::getenv("HETSIM_METRICS_JSON"))
    if (Env[0] != '\0' &&
        !writeTextFile(Env, renderSweepMetricsJson(Points, Metrics) + "\n"))
      HETSIM_WARN("cannot write sweep metrics to %s", Env);

  Telemetry = SweepTelemetry();
  Telemetry.Jobs = Jobs;
  Telemetry.JobsSource = JobsSource;
  Telemetry.Points = Points.size();
  Telemetry.WallSeconds = Timer.elapsedSeconds();
  for (const WorkerCounters &C : Workers) {
    Telemetry.BusySeconds += double(C.BusyNs) * 1e-9;
    Telemetry.TraceGenSeconds += double(C.GenNs) * 1e-9;
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
    HETSIM_WARN("cannot append bench timing to %s", Path.c_str());
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
               "\"store_hits\":%llu,\"store_misses\":%llu}\n",
               Bench.c_str(), static_cast<unsigned long long>(T.Points),
               T.Jobs, T.WallSeconds, T.pointsPerSecond(),
               T.simNsPerWallSecond(), T.JobsSource.c_str(),
               T.traceGenWallSeconds(), T.simulateSeconds(),
               static_cast<unsigned long long>(T.StoreHits),
               static_cast<unsigned long long>(T.StoreMisses));
  std::fclose(File);
  return true;
}
