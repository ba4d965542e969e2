//===- bench/table3_benchmarks.cpp - Regenerates Table III ----------------===//
///
/// \file
/// Table III: benchmark characteristics, measured from the abstract kernel
/// programs (instruction totals, communication counts, initial transfer
/// sizes) plus the instruction mix measured from generated traces.
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"
#include "trace/ComputeBlock.h"

#include <cstdio>

using namespace hetsim;

int main() {
  std::printf("=== Table III: benchmark characteristics (measured) ===\n\n");
  TextTable Table = renderTable3();
  maybeExportCsv("table3", Table);
  std::printf("%s\n", Table.render().c_str());

  std::printf("Measured instruction mix of each generated CPU trace:\n\n");
  TextTable Mix({"kernel", "loads", "stores", "branches", "alu",
                 "mem_frac"});
  for (KernelId Kernel : allKernels()) {
    KernelDataLayout Layout = KernelDataLayout::makeLinear(Kernel, 0x10000000);
    GenRequest Req;
    Req.Pu = PuKind::Cpu;
    Req.InstCount = kernelCharacteristics(Kernel).CpuInsts;
    // Count window by window: the whole trace never has to exist at once.
    BlockTrace Block(Kernel, Req, Layout);
    BlockExpander Expander(Block);
    TraceBuffer Window;
    TraceMix M;
    while (Expander.next(Window) != 0)
      M += Window.computeMix();
    Mix.addRow({kernelName(Kernel), formatCount(M.Loads),
                formatCount(M.Stores), formatCount(M.Branches),
                formatCount(M.Alu),
                formatPercent(double(M.Loads + M.Stores) / double(M.Total))});
  }
  std::printf("%s", Mix.render().c_str());
  return 0;
}
