//===- bench/ablation_partition.cpp - Work-partitioning sweep -------------===//
///
/// \file
/// Ablation D: the paper divides each kernel's work evenly between the
/// PUs and cites Qilin [25] for finding optimal partitioning points.
/// This ablation implements that search: sweep the CPU work fraction on
/// the ideal system and report the best split per kernel. Kernels whose
/// GPU half is cheaper per instruction favour GPU-heavy splits; branchy
/// kernels (merge sort) favour the CPU.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  std::printf("=== Ablation D: work partitioning (Qilin-style sweep, "
              "IDEAL system) ===\n\n");

  // One sweep for both tables: an 11-point curve per kernel (matrix
  // multiply is large; a coarser 5-point sweep suffices there). The
  // reduction curve doubles as the detailed table.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  std::vector<PartitionSweep> Sweeps;
  for (KernelId Kernel : allKernels())
    Sweeps.push_back({Kernel, Kernel == KernelId::MatrixMul ? 4u : 10u});
  SweepTelemetry Telemetry;
  std::vector<std::vector<PartitionPoint>> Curves =
      sweepPartitions(Config, Sweeps, 0, &Telemetry);

  std::printf("Reduction, total time vs CPU work fraction:\n\n");
  TextTable Curve({"cpu_fraction", "total_us", "parallel_us"});
  for (size_t S = 0; S != Sweeps.size(); ++S) {
    if (Sweeps[S].Kernel != KernelId::Reduction)
      continue;
    for (const PartitionPoint &Point : Curves[S])
      Curve.addRow({formatDouble(Point.CpuFraction, 1),
                    formatDouble(Point.TotalNs / 1e3, 1),
                    formatDouble(Point.ParallelNs / 1e3, 1)});
  }
  std::printf("%s\n", Curve.render().c_str());

  std::printf("Best split per kernel (11-point sweep):\n\n");
  TextTable Best({"kernel", "best cpu_fraction", "best total_us",
                  "even-split total_us", "speedup"});
  for (size_t S = 0; S != Sweeps.size(); ++S) {
    const std::vector<PartitionPoint> &Points = Curves[S];
    PartitionPoint BestPoint = Points.front();
    double EvenNs = 0;
    for (const PartitionPoint &Point : Points) {
      if (Point.TotalNs < BestPoint.TotalNs)
        BestPoint = Point;
      if (Point.CpuFraction > 0.49 && Point.CpuFraction < 0.51)
        EvenNs = Point.TotalNs;
    }
    if (EvenNs == 0)
      EvenNs = Points[Points.size() / 2].TotalNs;
    Best.addRow({kernelName(Sweeps[S].Kernel),
                 formatDouble(BestPoint.CpuFraction, 2),
                 formatDouble(BestPoint.TotalNs / 1e3, 1),
                 formatDouble(EvenNs / 1e3, 1),
                 formatDouble(EvenNs / BestPoint.TotalNs, 2)});
  }
  std::printf("%s\n", Best.render().c_str());
  std::printf("The paper's even split is the 0.5 column; the sweep shows\n"
              "how much an adaptive mapper (Qilin) could recover.\n");
  std::fprintf(stderr, "%s\n", Telemetry.summary().c_str());
  appendBenchTiming("ablation_partition", Telemetry);
  return 0;
}
