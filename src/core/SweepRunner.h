//===- core/SweepRunner.h - Parallel design-space sweeps --------*- C++ -*-===//
///
/// \file
/// The sweep engine every experiment harness and bench routes through.
/// A sweep is a vector of independent (system config, kernel) jobs. Each
/// config is fully resolved when it is built (overrides baked in through
/// forCaseStudy(Study, Store) and friends), so bad input exits on the
/// calling thread before any worker starts. The runner fans the jobs out
/// over a ThreadPool and returns results in submission order, so a table
/// rendered from a parallel sweep is byte-identical to the serial
/// harness. Each sweep also collects
/// wall-clock telemetry (points/s, simulated-ns throughput, trace-gen
/// vs simulate split) that benches print and append to
/// out/bench_timing.json so the repo keeps a perf trajectory across PRs.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_SWEEPRUNNER_H
#define HETSIM_CORE_SWEEPRUNNER_H

#include "core/HeteroSimulator.h"

#include <string>
#include <vector>

namespace hetsim {

/// One independent sweep job: a resolved configuration and a kernel.
/// SweepRunner::run lowers the kernel, never the grid builder, so
/// building a grid costs nothing.
struct SweepPoint {
  SystemConfig Config;
  KernelId Kernel = KernelId::Reduction;

  SweepPoint() = default;
  SweepPoint(SystemConfig Cfg, KernelId K)
      : Config(std::move(Cfg)), Kernel(K) {}
};

/// The order SweepRunner::run starts \p Points in, given each point's
/// total trace records in \p Records: submission order at one job (the
/// serial harness); with more, the most records first so the longest
/// points never start last, ties in submission order.
std::vector<size_t> dispatchOrder(const std::vector<uint64_t> &Records,
                                  unsigned Jobs);

/// Wall-clock telemetry of one sweep. Phase attribution is per-worker:
/// each worker diffs its *thread-local* trace-gen counter around every
/// point, so the sums below are true per-thread seconds — on an
/// oversubscribed host they still include timesharing stretch, but they
/// are never double-counted across workers, and the phase-seconds
/// accessors normalize them against total busy time instead of naively
/// subtracting from wall time (which used to clamp simulate to 0 the
/// moment gen sums exceeded the wall clock).
struct SweepTelemetry {
  unsigned Jobs = 1;      ///< Worker count the sweep ran with.
  /// Where Jobs came from: "explicit" (caller passed a count),
  /// "HETSIM_JOBS" (environment), or "hardware" (hardware_concurrency).
  std::string JobsSource = "explicit";
  uint64_t Points = 0;    ///< Sweep points executed.
  double WallSeconds = 0; ///< End-to-end wall time of the sweep.
  double SimNsTotal = 0;  ///< Sum of simulated total-ns over all points.
  /// Seconds workers spent inside sweep points, summed per worker (up to
  /// Jobs x WallSeconds when parallel).
  double BusySeconds = 0;
  /// Seconds spent producing trace records, summed per worker. A point's
  /// helper thread (a discrete-GPU round's GPU half) is credited to the
  /// worker that ran the point.
  double TraceGenSeconds = 0;
  uint64_t StoreHits = 0;   ///< Points served from the result store.
  uint64_t StoreMisses = 0; ///< Points simulated (store enabled but cold).
  /// Wall seconds of the longest single point: when it is close to
  /// WallSeconds, that point rather than dispatch bounds the sweep.
  double MaxPointSeconds = 0;

  double pointsPerSecond() const {
    return WallSeconds <= 0 ? 0.0 : double(Points) / WallSeconds;
  }
  /// Simulated nanoseconds retired per wall-clock second.
  double simNsPerWallSecond() const {
    return WallSeconds <= 0 ? 0.0 : SimNsTotal / WallSeconds;
  }

  /// Wall seconds attributed to a phase occupying \p PhaseBusySeconds of
  /// the workers' busy time: WallSeconds scaled by the phase's share.
  double normalizedPhaseSeconds(double PhaseBusySeconds) const {
    if (BusySeconds <= 0 || PhaseBusySeconds <= 0)
      return 0.0;
    double Share = PhaseBusySeconds / BusySeconds;
    return WallSeconds * (Share > 1.0 ? 1.0 : Share);
  }

  /// Wall seconds attributed to trace generation (per-worker normalized).
  double traceGenWallSeconds() const {
    return normalizedPhaseSeconds(TraceGenSeconds);
  }
  /// Wall seconds attributed to simulation proper: the busy share that
  /// is not trace generation. Serial sweeps reduce to WallSeconds - gen;
  /// parallel sweeps stay meaningful instead of clamping to zero.
  double simulateSeconds() const {
    return normalizedPhaseSeconds(BusySeconds - TraceGenSeconds);
  }

  /// One human-readable summary line (no trailing newline).
  std::string summary() const;
};

/// Runs sweeps. Construct with an explicit job count, or 0 to take
/// HETSIM_JOBS / hardware_concurrency() (ThreadPool::resolveJobs). jobs=1
/// executes inline on the calling thread in submission order (the serial
/// harness); more jobs start the points in dispatchOrder().
class SweepRunner {
public:
  explicit SweepRunner(unsigned Jobs = 0);

  /// Lowers every point on the calling thread, runs every point
  /// and returns results in submission order. Each point's lint, store
  /// key and simulation use the one lowered program.
  std::vector<RunResult> run(const std::vector<SweepPoint> &Points);

  /// Routes results through a content-addressed on-disk store rooted at
  /// \p Dir (see core/ResultStore.h): completed points are persisted,
  /// already-stored points are served without simulating. Overrides the
  /// HETSIM_RESULT_STORE environment default; an empty \p Dir returns to
  /// that default.
  void setResultStoreDir(std::string Dir) { StoreDir = std::move(Dir); }

  /// Telemetry of the most recent run().
  const SweepTelemetry &telemetry() const { return Telemetry; }

  /// Per-point metrics snapshots of the most recent run(), in submission
  /// order (same index space as the returned results). When
  /// $HETSIM_METRICS_JSON names a file, run() also dumps these as one
  /// "hetsim-sweep-metrics-v1" document there.
  const std::vector<MetricsSnapshot> &metrics() const { return Metrics; }

  unsigned jobs() const { return Jobs; }

private:
  unsigned Jobs;
  std::string JobsSource;
  std::string StoreDir;
  SweepTelemetry Telemetry;
  std::vector<MetricsSnapshot> Metrics;
};

/// Renders sweep metrics as a "hetsim-sweep-metrics-v1" document. The
/// per-point labels ("system", "kernel") come from \p Points; \p Metrics
/// must be index-aligned with it.
std::string renderSweepMetricsJson(const std::vector<SweepPoint> &Points,
                                   const std::vector<MetricsSnapshot> &Metrics);

/// Appends one JSON record for \p Bench to the timing log. The path is
/// $HETSIM_TIMING_JSON when set, else out/bench_timing.json (directories
/// are created as needed). Returns true if a record was written.
bool appendBenchTiming(const std::string &Bench, const SweepTelemetry &T);

} // namespace hetsim

#endif // HETSIM_CORE_SWEEPRUNNER_H
