//===- tools/hetsim_cli.cpp - Command-line front end ----------------------===//
///
/// \file
/// The `hetsim` command-line tool: run any (system, kernel) pair with
/// config overrides, print the paper's tables, or sweep a parameter —
/// without writing C++.
///
///   hetsim list
///   hetsim run --system LRB --kernel reduction [key=value ...]
///   hetsim table 1|2|3|4|5
///   hetsim sweep --system CPU+GPU --kernel "merge sort"
///       --key comm.api_pci_base --values 0,10000,33250,100000
///
//===----------------------------------------------------------------------===//

#include "common/StringUtil.h"
#include "core/Experiments.h"
#include "core/SweepRunner.h"
#include "energy/EnergyModel.h"
#include "obs/Metrics.h"
#include "obs/Phase.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace hetsim;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hetsim list\n"
      "  hetsim run --system <name> --kernel <name> [--config file]\n"
      "         [--stats] [--metrics out.json] [key=value ...]\n"
      "  hetsim compare --kernel <name> [key=value ...]\n"
      "  hetsim table <1|2|3|4|5>\n"
      "  hetsim sweep --system <name> --kernel <name> --key <config-key>\n"
      "         --values v1,v2,... [--resume] [--store <dir>] [key=value ...]\n"
      "systems: CPU+GPU LRB GMAC Fusion IDEAL-HETERO UNI PAS DIS ADSM\n"
      "--resume serves already-completed sweep points from the on-disk\n"
      "result store (default out/result-store, or --store / "
      "$HETSIM_RESULT_STORE)\n");
  return 2;
}

void printRun(const SystemConfig &Config, KernelId Kernel, bool DumpStats,
              const std::string &MetricsPath) {
  HeteroSimulator Simulator(Config);
  RunResult Result = Simulator.run(Kernel);
  MetricsSnapshot Metrics = Simulator.collectMetrics(Result);
  const TimeBreakdown &T = Result.Time;
  std::printf("%s / %s\n", Config.Name.c_str(), kernelName(Kernel));
  std::printf("  total          %10.2f us\n", T.totalNs() / 1e3);
  std::printf("  sequential     %10.2f us\n", T.SequentialNs / 1e3);
  std::printf("  parallel       %10.2f us\n", T.ParallelNs / 1e3);
  std::printf("  communication  %10.2f us (%.1f%%)\n",
              T.CommunicationNs / 1e3, 100.0 * T.commFraction());
  std::printf("  phases:");
  for (unsigned P = 0; P != NumRunPhases; ++P)
    if (Result.Phases.Ns[P] > 0)
      std::printf(" %s=%.2fus", runPhaseName(RunPhase(P)),
                  Result.Phases.Ns[P] / 1e3);
  std::printf("\n");
  std::printf("  cpu insts %llu (IPC %.2f), gpu warp insts %llu\n",
              (unsigned long long)Result.CpuTotal.Insts,
              Result.CpuTotal.ipc(),
              (unsigned long long)Result.GpuTotal.Insts);
  CpiStack Stack = computeCpiStack(Result.CpuTotal, Config.Cpu);
  std::printf("  cpu CPI %.2f = base %.2f + branch %.2f + fetch %.2f + "
              "mem/dep %.2f\n",
              Stack.totalCpi(), Stack.BaseCpi, Stack.BranchCpi,
              Stack.FetchCpi, Stack.MemDepCpi);
  std::printf("  transferred %llu B in %llu copies; page faults %llu; "
              "ownership actions %llu\n",
              (unsigned long long)Result.TransferredBytes,
              (unsigned long long)Result.TransferCount,
              (unsigned long long)Result.PageFaults,
              (unsigned long long)Result.OwnershipActions);
  std::printf("  comm source lines: %u\n", Result.CommSourceLines);

  bool Pci = Config.Connection == ConnectionKind::PciExpress;
  EnergyReport Energy = computeEnergy(EnergyParams(), Metrics, Result, Pci);
  std::printf("  energy: %s\n", Energy.renderSummary().c_str());

  if (DumpStats) {
    MemorySystem &Mem = Simulator.memory();
    std::printf("\nmemory-system counters:\n%s",
                Mem.stats().renderCounters().c_str());
    std::printf("cpu.l1d: acc=%llu hit=%.3f  cpu.l2: acc=%llu hit=%.3f  "
                "gpu.l1: acc=%llu hit=%.3f  l3: acc=%llu hit=%.3f\n",
                (unsigned long long)Mem.cpuL1().stats().Accesses,
                Mem.cpuL1().stats().hitRate(),
                (unsigned long long)Mem.cpuL2().stats().Accesses,
                Mem.cpuL2().stats().hitRate(),
                (unsigned long long)Mem.gpuL1().stats().Accesses,
                Mem.gpuL1().stats().hitRate(),
                (unsigned long long)Mem.l3().stats().Accesses,
                Mem.l3().stats().hitRate());
    std::printf("dram: reads=%llu writes=%llu row-hit=%.3f  noc(%s): "
                "msgs=%llu hops=%llu\n",
                (unsigned long long)Mem.cpuDram().stats().Reads,
                (unsigned long long)Mem.cpuDram().stats().Writes,
                Mem.cpuDram().stats().rowHitRate(), Mem.noc().name(),
                (unsigned long long)Mem.noc().stats().Messages,
                (unsigned long long)Mem.noc().stats().TotalHops);
    std::printf("tlb: cpu-miss=%llu gpu-miss=%llu\n",
                (unsigned long long)Mem.tlb(PuKind::Cpu).stats().Misses,
                (unsigned long long)Mem.tlb(PuKind::Gpu).stats().Misses);
  }

  if (!MetricsPath.empty()) {
    ConservationReport Audit = checkConservation(Simulator.memory());
    if (!Audit.Ok)
      std::fprintf(stderr, "warning: %s\n", Audit.summary().c_str());
    if (writeMetricsJson(MetricsPath, Metrics))
      std::printf("  metrics: %zu values -> %s (conservation %s)\n",
                  Metrics.size(), MetricsPath.c_str(),
                  Audit.Ok ? "ok" : "VIOLATED");
    else
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   MetricsPath.c_str());
  }
}

int cmdList() {
  std::printf("kernels:\n");
  for (KernelId Kernel : allKernels())
    std::printf("  %-12s %s\n", kernelName(Kernel),
                kernelCharacteristics(Kernel).Pattern);
  std::printf("case-study systems:\n");
  for (CaseStudy Study : allCaseStudies())
    std::printf("  %s\n", caseStudyName(Study));
  std::printf("address-space studies (ideal comm): UNI PAS DIS ADSM\n");
  return 0;
}

int cmdTable(const std::string &Which) {
  if (Which == "1") {
    std::printf("%s", renderTable1().render().c_str());
    return 0;
  }
  if (Which == "2") {
    std::printf("%s",
                renderTable2(SystemConfig::forCaseStudy(CaseStudy::IdealHetero))
                    .render()
                    .c_str());
    return 0;
  }
  if (Which == "3") {
    std::printf("%s", renderTable3().render().c_str());
    return 0;
  }
  if (Which == "4") {
    std::printf("%s", renderTable4(CommParams()).render().c_str());
    return 0;
  }
  if (Which == "5") {
    std::printf("%s", renderTable5().render().c_str());
    return 0;
  }
  return usage();
}

struct ParsedArgs {
  std::string System;
  std::string Kernel;
  std::string SweepKey;
  std::vector<std::string> SweepValues;
  ConfigStore Overrides;
  bool DumpStats = false;
  std::string MetricsPath;
  bool Resume = false;
  std::string StoreDir;
  bool Ok = true;
};

ParsedArgs parseArgs(int Argc, char **Argv, int Start) {
  ParsedArgs Args;
  for (int I = Start; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Each failure names the argument at fault; the caller then prints
    // the usage and exits 2.
    auto TakeValue = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        Args.Ok = false;
        return false;
      }
      Out = Argv[++I];
      return true;
    };
    if (Arg == "--system") {
      TakeValue(Args.System);
    } else if (Arg == "--config") {
      std::string Path;
      TakeValue(Path);
      if (!Path.empty() && !Args.Overrides.loadFile(Path)) {
        std::fprintf(stderr, "error: cannot read config file '%s'\n",
                     Path.c_str());
        Args.Ok = false;
      }
    } else if (Arg == "--kernel") {
      TakeValue(Args.Kernel);
    } else if (Arg == "--stats") {
      Args.DumpStats = true;
    } else if (Arg == "--metrics") {
      TakeValue(Args.MetricsPath);
    } else if (Arg == "--resume") {
      Args.Resume = true;
    } else if (Arg == "--store") {
      TakeValue(Args.StoreDir);
    } else if (Arg == "--key") {
      TakeValue(Args.SweepKey);
    } else if (Arg == "--values") {
      std::string Joined;
      TakeValue(Joined);
      Args.SweepValues = splitString(Joined, ',');
    } else if (Arg.find('=') != std::string::npos) {
      if (!Args.Overrides.parseAssignment(Arg)) {
        std::fprintf(stderr, "error: '%s' is not a key=value assignment\n",
                     Arg.c_str());
        Args.Ok = false;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      Args.Ok = false;
    }
  }
  return Args;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Command = Argv[1];

  if (Command == "list")
    return cmdList();
  if (Command == "table")
    return Argc >= 3 ? cmdTable(Argv[2]) : usage();

  if (Command == "compare") {
    ParsedArgs Args = parseArgs(Argc, Argv, 2);
    if (!Args.Ok || Args.Kernel.empty())
      return usage();
    KernelId Kernel;
    if (!kernelByName(Args.Kernel.c_str(), Kernel)) {
      std::fprintf(stderr, "error: unknown kernel '%s'\n",
                   Args.Kernel.c_str());
      return 2;
    }
    std::printf("%-14s %10s %10s %10s %10s %9s %6s\n", "system", "total_us",
                "seq_us", "par_us", "comm_us", "comm_frac", "lines");
    for (CaseStudy Study : allCaseStudies()) {
      SystemConfig Config = SystemConfig::forCaseStudy(Study, Args.Overrides);
      HeteroSimulator Simulator(Config);
      RunResult R = Simulator.run(Kernel);
      std::printf("%-14s %10.1f %10.1f %10.1f %10.1f %8.1f%% %6u\n",
                  Config.Name.c_str(), R.Time.totalNs() / 1e3,
                  R.Time.SequentialNs / 1e3, R.Time.ParallelNs / 1e3,
                  R.Time.CommunicationNs / 1e3,
                  100.0 * R.Time.commFraction(), R.CommSourceLines);
    }
    return 0;
  }

  if (Command == "run" || Command == "sweep") {
    ParsedArgs Args = parseArgs(Argc, Argv, 2);
    if (!Args.Ok || Args.System.empty() || Args.Kernel.empty())
      return usage();
    KernelId Kernel;
    if (!kernelByName(Args.Kernel.c_str(), Kernel)) {
      std::fprintf(stderr, "error: unknown kernel '%s'\n",
                   Args.Kernel.c_str());
      return 2;
    }

    if (Command == "run") {
      SystemConfig Config;
      if (!systemByName(Args.System, Config, Args.Overrides)) {
        std::fprintf(stderr, "error: unknown system '%s'\n",
                     Args.System.c_str());
        return 2;
      }
      printRun(Config, Kernel, Args.DumpStats, Args.MetricsPath);
      return 0;
    }

    // sweep: fan the points over the sweep engine (HETSIM_JOBS workers;
    // results stay in submission order). Overrides are baked into each
    // point's config, so the point's own store stays empty.
    if (Args.SweepKey.empty() || Args.SweepValues.empty())
      return usage();
    std::vector<SweepPoint> Points;
    for (const std::string &Value : Args.SweepValues) {
      ConfigStore Overrides = Args.Overrides;
      Overrides.set(Args.SweepKey, Value);
      SystemConfig Config;
      if (!systemByName(Args.System, Config, Overrides)) {
        std::fprintf(stderr, "error: unknown system '%s'\n",
                     Args.System.c_str());
        return 2;
      }
      Points.emplace_back(std::move(Config), Kernel);
    }
    SweepRunner Runner;
    // --store names the result-store root explicitly; bare --resume
    // falls back to $HETSIM_RESULT_STORE, then out/result-store. Either
    // flag makes the sweep resumable: completed points are persisted,
    // and a re-run serves them without simulating.
    if (Args.Resume || !Args.StoreDir.empty()) {
      std::string Dir = Args.StoreDir;
      if (Dir.empty())
        if (const char *Env = std::getenv("HETSIM_RESULT_STORE"))
          Dir = Env;
      if (Dir.empty())
        Dir = "out/result-store";
      Runner.setResultStoreDir(Dir);
    }
    std::vector<RunResult> Results = Runner.run(Points);
    std::printf("%-16s %12s %12s %12s\n", Args.SweepKey.c_str(), "total_us",
                "comm_us", "comm_frac");
    for (size_t I = 0; I != Results.size(); ++I)
      std::printf("%-16s %12.2f %12.2f %11.1f%%\n",
                  Args.SweepValues[I].c_str(),
                  Results[I].Time.totalNs() / 1e3,
                  Results[I].Time.CommunicationNs / 1e3,
                  100.0 * Results[I].Time.commFraction());
    const SweepTelemetry &T = Runner.telemetry();
    if (T.StoreHits + T.StoreMisses != 0)
      std::fprintf(stderr,
                   "result store: %llu served, %llu simulated\n",
                   (unsigned long long)T.StoreHits,
                   (unsigned long long)T.StoreMisses);
    return 0;
  }

  std::fprintf(stderr, "error: unknown command '%s'\n", Command.c_str());
  return usage();
}
