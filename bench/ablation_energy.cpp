//===- bench/ablation_energy.cpp - Design-point energy comparison ---------===//
///
/// \file
/// Ablation F: the paper's conclusion argues the partially shared space
/// "provides opportunities to optimize hardware and save power/energy".
/// This ablation quantifies run energy per design point with an
/// event-based energy model: PCI-E systems pay transfer energy, LRB pays
/// fault handling, Fusion pays DRAM copy energy, and IDEAL pays only the
/// (coherent) on-chip traffic.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"
#include "energy/EnergyModel.h"

#include <cstdio>

using namespace hetsim;

int main() {
  std::printf("=== Ablation F: energy per design point ===\n\n");

  const KernelId Kernels[] = {KernelId::Reduction, KernelId::MergeSort};
  std::vector<SweepPoint> Points;
  for (KernelId Kernel : Kernels)
    for (CaseStudy Study : allCaseStudies())
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);
  SweepRunner Runner;
  std::vector<RunResult> Results = Runner.run(Points);

  size_t I = 0;
  for (KernelId Kernel : Kernels) {
    std::printf("%s:\n\n", kernelName(Kernel));
    TextTable Table({"system", "total_uJ", "core", "cache", "dram", "noc",
                     "comm", "uJ per us"});
    for (size_t S = 0; S != allCaseStudies().size(); ++S, ++I) {
      const SystemConfig &Config = Points[I].Config;
      const RunResult &R = Results[I];
      bool Pci = Config.Connection == ConnectionKind::PciExpress;
      EnergyReport E =
          computeEnergy(EnergyParams(), Runner.metrics()[I], R, Pci);
      double TotalUs = R.Time.totalNs() / 1e3;
      Table.addRow({Config.Name, formatDouble(E.totalUj(), 1),
                    formatDouble(E.CoreNj / 1e3, 1),
                    formatDouble(E.CacheNj / 1e3, 1),
                    formatDouble(E.DramNj / 1e3, 1),
                    formatDouble(E.NetworkNj / 1e3, 2),
                    formatDouble(E.CommNj / 1e3, 1),
                    formatDouble(E.totalUj() / TotalUs, 2)});
    }
    std::printf("%s\n", Table.render().c_str());
  }
  std::printf("Communication energy mirrors Figure 6's time shape: the\n"
              "synchronous PCI-E system spends the most, the integrated\n"
              "designs the least — the quantitative backing for the\n"
              "paper's power/energy argument.\n");
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_energy", Runner.telemetry());
  return 0;
}
