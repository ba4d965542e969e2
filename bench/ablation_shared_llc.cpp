//===- bench/ablation_shared_llc.cpp - Disjoint space, shared LLC ---------===//
///
/// \file
/// Ablation G: Section II-A2 stresses that "even though memory spaces are
/// not shared, they can still share the cache" (Intel Sandy Bridge).
/// This ablation compares a Fusion-style disjoint system without a shared
/// LLC against a Sandy-Bridge-style one where the GPU also fills the L3:
/// address-space organization and cache sharing are independent axes.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

namespace {
/// Average GPU memory latency of a run, in cycles.
double gpuAvgLatency(const RunResult &R) {
  return R.GpuTotal.MemAccesses == 0
             ? 0
             : double(R.GpuTotal.MemLatencySum) /
                   double(R.GpuTotal.MemAccesses);
}
} // namespace

int main() {
  std::printf("=== Ablation G: disjoint space with vs without shared LLC "
              "(Section II-A2) ===\n\n");

  const KernelId Kernels[] = {KernelId::Reduction, KernelId::Convolution,
                              KernelId::MergeSort, KernelId::KMeans};
  // Per kernel: the Fusion point (private LLC), then the Sandy Bridge one.
  std::vector<SweepPoint> Points;
  for (KernelId Kernel : Kernels) {
    Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Fusion), Kernel);
    Points.emplace_back(SystemConfig::sandyBridgeStyle(), Kernel);
  }
  SweepRunner Runner;
  std::vector<RunResult> Results = Runner.run(Points);
  const std::vector<MetricsSnapshot> &Metrics = Runner.metrics();

  TextTable Table({"kernel", "total_us priv/shared", "gpu avg mem lat (cyc)",
                   "gpu dram lines", "gpu L3 hit rate"});
  for (size_t I = 0; I != Points.size(); I += 2) {
    const RunResult &Private = Results[I], &Shared = Results[I + 1];
    const MetricsSnapshot &SandyMetrics = Metrics[I + 1];
    double L3Accesses = SandyMetrics.get("cache.l3.accesses");
    double L3Hit = L3Accesses == 0
                       ? 0.0
                       : SandyMetrics.get("cache.l3.hits") / L3Accesses;
    Table.addRow(
        {kernelName(Points[I].Kernel),
         formatDouble(Private.Time.totalNs() / 1e3, 1) + " / " +
             formatDouble(Shared.Time.totalNs() / 1e3, 1),
         formatDouble(gpuAvgLatency(Private), 1) + " -> " +
             formatDouble(gpuAvgLatency(Shared), 1),
         formatCount(uint64_t(Metrics[I].get("dram.cpu.reads"))) + " -> " +
             formatCount(uint64_t(SandyMetrics.get("dram.cpu.reads"))),
         formatPercent(L3Hit)});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("Both systems keep disjoint address spaces and the same\n"
              "memory-controller communication; only LLC sharing differs.\n"
              "Sharing the LLC cuts the GPU's average memory latency and\n"
              "its DRAM traffic, while total time is bounded elsewhere —\n"
              "the axes are independent, as Section II-A2 argues.\n");
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_shared_llc", Runner.telemetry());
  return 0;
}
