//===- bench/ablation_noc.cpp - Ring vs mesh interconnect -----------------===//
///
/// \file
/// Ablation I: swap the Table II ring bus for a 2D mesh (Table I's
/// "interconnection" systems use meshes/fabrics) on the IDEAL system and
/// compare uncore behaviour. With seven stops the topologies have similar
/// diameters, so end-to-end numbers barely move — evidence that at this
/// scale the NoC choice, like the address space, is mostly decoupled from
/// the communication mechanism.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"

#include <cstdio>

using namespace hetsim;

int main() {
  std::printf("=== Ablation I: ring vs mesh NoC (IDEAL system) ===\n\n");

  std::vector<SweepPoint> Points;
  for (KernelId Kernel :
       {KernelId::Reduction, KernelId::Convolution, KernelId::MergeSort}) {
    for (const char *Noc : {"ring", "mesh"}) {
      ConfigStore Overrides;
      Overrides.set("mem.noc", Noc);
      Points.emplace_back(
          SystemConfig::forCaseStudy(CaseStudy::IdealHetero, Overrides),
          Kernel);
    }
  }
  SweepRunner Runner;
  std::vector<RunResult> Results = Runner.run(Points);

  TextTable Table({"kernel", "noc", "total_us", "noc msgs", "avg hops",
                   "contention cyc"});
  for (size_t I = 0; I != Points.size(); ++I) {
    const MetricsSnapshot &M = Runner.metrics()[I];
    double Messages = M.get("noc.messages");
    double AvgHops = Messages == 0 ? 0.0 : M.get("noc.hops") / Messages;
    const char *Noc = Points[I].Config.Hier.UseMeshNoc ? "mesh" : "ring";
    Table.addRow({kernelName(Points[I].Kernel), Noc,
                  formatDouble(Results[I].Time.totalNs() / 1e3, 1),
                  formatCount(uint64_t(Messages)), formatDouble(AvgHops, 2),
                  formatCount(uint64_t(M.get("noc.contention_cycles")))});
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("The 3x3 mesh and 7-stop ring have comparable diameters at\n"
              "this system size; topology becomes a first-order concern\n"
              "only at many more stops (e.g. Rigel's 1000-core fabric).\n");
  std::fprintf(stderr, "%s\n", Runner.telemetry().summary().c_str());
  appendBenchTiming("ablation_noc", Runner.telemetry());
  return 0;
}
