//===- bench/hetsim_bench.cpp - Simulator performance harness -------------===//
///
/// \file
/// Times the simulator itself, phase by phase: trace generation throughput
/// per kernel, single-run simulation per kernel x memory model, the fig5
/// sweep through the SweepRunner, and jobs=2 scaling. Each phase appends
/// one record in the bench_timing.json shape (points_per_s carries the
/// phase's native throughput), so scripts/bench_timing.sh can gate any of
/// them.
///
/// Usage: hetsim_bench [--smoke] [--phase NAME]
///   --smoke   shrink every phase to a seconds-scale CI gate
///   --phase   run only the named phase
///             (tracegen|singlerun|sweep|scaling)
///
//===----------------------------------------------------------------------===//

#include "common/WallTimer.h"
#include "core/Experiments.h"
#include "trace/ComputeBlock.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace hetsim;

namespace {

struct BenchOptions {
  bool Smoke = false;
  std::string Phase; ///< Empty = all phases.

  bool runs(const char *Name) const {
    return Phase.empty() || Phase == Name;
  }
};

/// Appends a bench_timing.json record for a hand-timed phase: Points is
/// the phase's native unit (records, runs, sweep points), so
/// points_per_s carries its throughput.
void reportPhase(const std::string &Bench, uint64_t Points,
                 double WallSeconds, double TraceGenSeconds = 0) {
  SweepTelemetry T;
  T.Jobs = 1;
  T.JobsSource = "explicit";
  T.Points = Points;
  T.WallSeconds = WallSeconds;
  T.TraceGenSeconds = TraceGenSeconds;
  std::printf("  -> %s\n", T.summary().c_str());
  appendBenchTiming(Bench, T);
}

/// Phase 1: raw trace-generation throughput (records/s) per kernel.
void benchTraceGen(const BenchOptions &Opts) {
  std::printf("=== tracegen: generator throughput ===\n");
  const uint64_t Records = Opts.Smoke ? 200000 : 2000000;
  uint64_t Total = 0;
  double GenBefore = double(traceGenNanos()) * 1e-9;
  WallTimer Timer;
  for (KernelId Kernel : allKernels()) {
    KernelDataLayout Layout =
        KernelDataLayout::makeLinear(Kernel, region::CpuPrivateBase);
    GenRequest Req;
    Req.Pu = PuKind::Cpu;
    Req.InstCount = Records;
    WallTimer KernelTimer;
    TraceBuffer Trace =
        KernelTraceGenerator::forKernel(Kernel).generateCompute(Req, Layout);
    double Secs = KernelTimer.elapsedSeconds();
    Total += Trace.size();
    std::printf("  %-12s %8.1f Mrec/s (%llu records, %.3f s)\n",
                kernelName(Kernel), double(Trace.size()) / Secs / 1e6,
                static_cast<unsigned long long>(Trace.size()), Secs);
  }
  reportPhase("hetsim_bench_tracegen", Total, Timer.elapsedSeconds(),
              double(traceGenNanos()) * 1e-9 - GenBefore);
}

/// Phase 2: end-to-end single runs, each kernel on each memory model.
void benchSingleRun(const BenchOptions &Opts) {
  std::printf("=== singlerun: per kernel x model ===\n");
  std::vector<CaseStudy> Studies(allCaseStudies());
  std::vector<KernelId> Kernels(allKernels());
  if (Opts.Smoke) {
    Studies = {CaseStudy::CpuGpu, CaseStudy::Fusion};
    Kernels = {KernelId::Reduction, KernelId::MergeSort};
  }
  uint64_t Runs = 0;
  double GenBefore = double(traceGenNanos()) * 1e-9;
  WallTimer Timer;
  for (CaseStudy Study : Studies) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    for (KernelId Kernel : Kernels) {
      WallTimer RunTimer;
      HeteroSimulator Sim(Config);
      RunResult Result = Sim.run(Kernel);
      std::printf("  %-12s %-12s %7.0f ms wall, %.3g sim-ns\n",
                  caseStudyName(Study), kernelName(Kernel),
                  RunTimer.elapsedSeconds() * 1e3, Result.Time.totalNs());
      ++Runs;
    }
  }
  reportPhase("hetsim_bench_singlerun", Runs, Timer.elapsedSeconds(),
              double(traceGenNanos()) * 1e-9 - GenBefore);
}

/// Phase 3: the fig5 sweep through the SweepRunner (serial — the
/// configuration the committed BENCH_sweep.json baseline gates).
void benchSweep(const BenchOptions &Opts) {
  std::printf("=== sweep: fig5 case studies through SweepRunner ===\n");
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : allCaseStudies())
    for (KernelId Kernel : allKernels()) {
      if (Opts.Smoke &&
          (Study != CaseStudy::CpuGpu || Kernel > KernelId::Convolution))
        continue;
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);
    }
  SweepRunner Runner(1);
  Runner.run(Points);
  std::printf("  -> %s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("hetsim_bench_sweep", Runner.telemetry());
}

/// Phase 4: scaling gate — a jobs=2 sweep must finish no slower than
/// 1.05x the serial wall on a host that actually has two cores (the
/// threshold tolerates timer noise; real contention regressions blow
/// straight past it). Serial and jobs=2 sweeps alternate three times and
/// the medians are compared, so a burst of load from other processes on
/// a shared host cannot fail the gate alone. The smoke sweep is every
/// case study on the five kernels other than matrix multiply: 25 points
/// small enough that the pool rebalances around a stalled worker, where
/// one matrix-multiply point is most of a sweep's serial wall, so with it
/// jobs=2 could only tie serial.
/// Single-core hosts print a visible skip notice instead of a flaky gate.
void benchScaling(const BenchOptions &Opts) {
  std::printf("=== scaling: jobs=2 vs serial sweep wall ===\n");
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores < 2) {
    std::printf("  SKIP: scaling gate needs >=2 cores, host reports %u "
                "(gate not evaluated)\n",
                Cores);
    return;
  }
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : allCaseStudies())
    for (KernelId Kernel : allKernels()) {
      if (Opts.Smoke && Kernel == KernelId::MatrixMul)
        continue;
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);
    }

  auto RunWith = [&](unsigned Jobs, const char *Bench) {
    SweepRunner Runner(Jobs);
    Runner.run(Points);
    std::printf("  jobs=%u -> %s\n", Jobs,
                Runner.telemetry().summary().c_str());
    appendBenchTiming(Bench, Runner.telemetry());
    return Runner.telemetry().WallSeconds;
  };
  constexpr unsigned Rounds = 3;
  std::vector<double> Serial, Parallel;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    Serial.push_back(RunWith(1, "hetsim_bench_scaling_serial"));
    Parallel.push_back(RunWith(2, "hetsim_bench_scaling_jobs2"));
  }
  auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  double SerialSecs = Median(Serial);
  double ParallelSecs = Median(Parallel);

  if (ParallelSecs > SerialSecs * 1.05) {
    std::fprintf(stderr,
                 "error: jobs=2 sweep (median %.3f s) exceeded 1.05x serial "
                 "wall (median %.3f s)\n",
                 ParallelSecs, SerialSecs);
    std::exit(1);
  }
  std::printf("  gate ok: jobs=2 median %.3f s <= 1.05 x serial median "
              "%.3f s\n",
              ParallelSecs, SerialSecs);
}

} // namespace

int main(int Argc, char **Argv) {
  static const char *const Phases[] = {"tracegen", "singlerun", "sweep",
                                       "scaling"};
  auto KnownPhase = [](const char *Name) {
    for (const char *Phase : Phases)
      if (std::strcmp(Name, Phase) == 0)
        return true;
    return false;
  };
  BenchOptions Opts;
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Opts.Smoke = true;
    } else if (std::strcmp(Argv[I], "--phase") == 0 && I + 1 != Argc &&
               KnownPhase(Argv[I + 1])) {
      Opts.Phase = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: hetsim_bench [--smoke] "
                   "[--phase tracegen|singlerun|sweep|scaling]\n");
      return 2;
    }
  }

  std::printf("hetsim_bench%s\n\n", Opts.Smoke ? " (smoke)" : "");
  if (Opts.runs("tracegen"))
    benchTraceGen(Opts);
  if (Opts.runs("singlerun"))
    benchSingleRun(Opts);
  if (Opts.runs("sweep"))
    benchSweep(Opts);
  if (Opts.runs("scaling"))
    benchScaling(Opts);
  return 0;
}
