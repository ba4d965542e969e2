//===- bench/extra_workloads.cpp - Beyond-Table-III workloads -------------===//
///
/// \file
/// Ablation H: three workloads the paper does not evaluate (stream triad,
/// histogram, SpMV) on three design points, plus a problem-size scaling
/// study showing where communication stops mattering — the design-space
/// tool applied to new inputs.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/ExtraWorkloads.h"
#include "core/Experiments.h"

#include <cstdio>
#include <iterator>

using namespace hetsim;

int main() {
  std::printf("=== Ablation H: extra workloads (stream triad, histogram, "
              "spmv) ===\n\n");

  // One sweep: every (workload, system) point, then the scaling study's
  // stream-triad sizes on CPU+GPU.
  const CaseStudy Studies[] = {CaseStudy::CpuGpu, CaseStudy::Fusion,
                               CaseStudy::IdealHetero};
  const uint64_t Sizes[] = {4096, 16384, 65536, 262144, 1048576};
  std::vector<SweepPoint> Points;
  for (ExtraWorkloadId Id : allExtraWorkloads())
    for (CaseStudy Study : Studies) {
      SystemConfig Config = SystemConfig::forCaseStudy(Study);
      LoweredProgram Program = buildExtraWorkload(Id, Config, 128 * 1024);
      Points.emplace_back(std::move(Config), std::move(Program),
                          extraWorkloadName(Id));
    }
  size_t ScaleBegin = Points.size();
  for (uint64_t Elements : Sizes) {
    SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
    LoweredProgram Program =
        buildExtraWorkload(ExtraWorkloadId::StreamTriad, Config, Elements);
    Points.emplace_back(std::move(Config), std::move(Program),
                        extraWorkloadName(ExtraWorkloadId::StreamTriad));
  }
  SweepRunner Runner;
  std::vector<RunResult> Results = Runner.run(Points);

  TextTable Table({"workload", "system", "total_us", "comm_us",
                   "comm_frac"});
  for (size_t I = 0; I != ScaleBegin; ++I) {
    const RunResult &R = Results[I];
    Table.addRow({Points[I].workloadName(), Points[I].Config.Name,
                  formatDouble(R.Time.totalNs() / 1e3, 1),
                  formatDouble(R.Time.CommunicationNs / 1e3, 1),
                  formatPercent(R.Time.commFraction())});
  }
  std::printf("%s\n", Table.render().c_str());

  std::printf("Scaling study: stream triad on CPU+GPU, communication "
              "fraction vs size\n\n");
  TextTable Scale({"elements", "bytes moved", "total_us", "comm_frac"});
  for (size_t S = 0; S != std::size(Sizes); ++S) {
    const RunResult &R = Results[ScaleBegin + S];
    Scale.addRow({formatCount(Sizes[S]), formatCount(R.TransferredBytes),
                  formatDouble(R.Time.totalNs() / 1e3, 1),
                  formatPercent(R.Time.commFraction())});
  }
  std::printf("%s\n", Scale.render().c_str());
  std::printf("Fixed API costs dominate small problems; bandwidth terms\n"
              "dominate large ones — the crossover the Table IV model\n"
              "implies.\n");
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("extra_workloads", Runner.telemetry());
  return 0;
}
