//===- core/Experiments.cpp -----------------------------------------------===//

#include "core/Experiments.h"

#include "common/Log.h"
#include "common/StringUtil.h"
#include "common/Units.h"
#include "core/SystemDescriptor.h"

#include <cstdio>
#include <cstdlib>
#include <map>

using namespace hetsim;

namespace {
/// Fans a (system x kernel) grid out over the sweep engine and zips the
/// results back into presentation-ordered rows.
std::vector<ExperimentRow>
runSystemKernelGrid(const std::vector<SystemConfig> &Systems, unsigned Jobs,
                    SweepTelemetry *Telemetry) {
  std::vector<SweepPoint> Points;
  Points.reserve(Systems.size() * allKernels().size());
  for (const SystemConfig &Config : Systems)
    for (KernelId Kernel : allKernels())
      Points.emplace_back(Config, Kernel);

  SweepRunner Runner(Jobs);
  std::vector<RunResult> Results = Runner.run(Points);
  if (Telemetry)
    *Telemetry = Runner.telemetry();

  std::vector<ExperimentRow> Rows;
  Rows.reserve(Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    ExperimentRow Row;
    Row.System = Points[I].Config.Name;
    Row.Kernel = Points[I].Kernel;
    Row.Result = std::move(Results[I]);
    Rows.push_back(std::move(Row));
  }
  return Rows;
}
} // namespace

std::vector<ExperimentRow>
hetsim::runCaseStudies(const ConfigStore &Overrides, unsigned Jobs,
                       SweepTelemetry *Telemetry) {
  std::vector<SystemConfig> Systems;
  for (CaseStudy Study : allCaseStudies())
    Systems.push_back(SystemConfig::forCaseStudy(Study, Overrides));
  return runSystemKernelGrid(Systems, Jobs, Telemetry);
}

std::vector<ExperimentRow>
hetsim::runAddressSpaceStudy(const ConfigStore &Overrides, unsigned Jobs,
                             SweepTelemetry *Telemetry) {
  static const AddressSpaceKind Kinds[] = {
      AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
      AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm};
  std::vector<SystemConfig> Systems;
  for (AddressSpaceKind Kind : Kinds)
    Systems.push_back(SystemConfig::forAddressSpaceStudy(Kind, Overrides));
  return runSystemKernelGrid(Systems, Jobs, Telemetry);
}

namespace {
/// Total time of a reference system per kernel (for normalization).
std::map<KernelId, double>
referenceTotals(const std::vector<ExperimentRow> &Rows,
                const std::string &System) {
  std::map<KernelId, double> Ref;
  for (const ExperimentRow &Row : Rows)
    if (Row.System == System)
      Ref[Row.Kernel] = Row.Result.Time.totalNs();
  return Ref;
}
} // namespace

TextTable hetsim::renderFigure5(const std::vector<ExperimentRow> &Rows) {
  std::map<KernelId, double> Ref = referenceTotals(Rows, "IDEAL-HETERO");
  TextTable Table({"kernel", "system", "seq_us", "par_us", "comm_us",
                   "total_us", "norm_to_ideal", "comm_frac"});
  for (const ExperimentRow &Row : Rows) {
    const TimeBreakdown &T = Row.Result.Time;
    double Norm = 0;
    auto It = Ref.find(Row.Kernel);
    if (It != Ref.end() && It->second > 0)
      Norm = T.totalNs() / It->second;
    Table.addRow({kernelName(Row.Kernel), Row.System,
                  formatDouble(T.SequentialNs / 1e3, 2),
                  formatDouble(T.ParallelNs / 1e3, 2),
                  formatDouble(T.CommunicationNs / 1e3, 2),
                  formatDouble(T.totalNs() / 1e3, 2),
                  Norm == 0 ? "-" : formatDouble(Norm, 3),
                  formatPercent(T.commFraction())});
  }
  return Table;
}

TextTable hetsim::renderFigure6(const std::vector<ExperimentRow> &Rows) {
  TextTable Table({"kernel", "system", "comm_us", "comm_frac",
                   "bytes_moved", "transfers", "page_faults"});
  for (const ExperimentRow &Row : Rows) {
    const RunResult &R = Row.Result;
    Table.addRow({kernelName(Row.Kernel), Row.System,
                  formatDouble(R.Time.CommunicationNs / 1e3, 2),
                  formatPercent(R.Time.commFraction()),
                  formatCount(R.TransferredBytes),
                  std::to_string(R.TransferCount),
                  std::to_string(R.PageFaults)});
  }
  return Table;
}

TextTable hetsim::renderFigure7(const std::vector<ExperimentRow> &Rows) {
  std::map<KernelId, double> Ref = referenceTotals(Rows, "UNI");
  TextTable Table({"kernel", "space", "total_us", "norm_to_uni",
                   "comm_us"});
  for (const ExperimentRow &Row : Rows) {
    const TimeBreakdown &T = Row.Result.Time;
    double Norm = 0;
    auto It = Ref.find(Row.Kernel);
    if (It != Ref.end() && It->second > 0)
      Norm = T.totalNs() / It->second;
    Table.addRow({kernelName(Row.Kernel), Row.System,
                  formatDouble(T.totalNs() / 1e3, 2),
                  Norm == 0 ? "-" : formatDouble(Norm, 4),
                  formatDouble(T.CommunicationNs / 1e3, 3)});
  }
  return Table;
}

bool hetsim::maybeExportCsv(const std::string &Name,
                            const TextTable &Table) {
  const char *Dir = std::getenv("HETSIM_CSV_DIR");
  if (!Dir || Dir[0] == '\0')
    return false;
  std::string Path = std::string(Dir) + "/" + Name + ".csv";
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    logWarning("cannot write CSV export to %s", Path.c_str());
    return false;
  }
  std::string Csv = Table.renderCsv();
  std::fwrite(Csv.data(), 1, Csv.size(), File);
  std::fclose(File);
  return true;
}

TextTable hetsim::renderTable1() {
  TextTable Table({"scheme", "address space", "Connection", "coherence",
                   "how to use shared data", "consistency",
                   "synchronization", "Locality"});
  for (const SystemDescriptor &Row : tableOneSurvey())
    Table.addRow({Row.Scheme, addressSpaceName(Row.AddrSpace),
                  connectionName(Row.Connection),
                  coherenceName(Row.Coherence), Row.SharedDataUse,
                  consistencyName(Row.Consistency), Row.Synchronization,
                  Row.Locality});
  return Table;
}

TextTable hetsim::renderTable2(const SystemConfig &Config) {
  const MemHierConfig &H = Config.Hier;
  TextTable Table({"component", "CPU", "GPU"});
  Table.addRow({"# cores", "1", "1"});
  Table.addRow({"Execution engine", "3.5GHz, out-of-order",
                "1.5GHz, in-order, 8-wide SIMD"});
  Table.addRow({"Branch predictor",
                "gshare (" +
                    std::to_string(1u << Config.Cpu.GshareTableBits) +
                    " entries)",
                "N/A (stall on branch)"});
  Table.addRow({"L1 Dcache",
                formatBytes(H.CpuL1.SizeBytes) + " " +
                    std::to_string(H.CpuL1.Ways) + "-way (" +
                    std::to_string(H.CpuL1.HitLatency) + "-cycle)",
                formatBytes(H.GpuL1.SizeBytes) + " " +
                    std::to_string(H.GpuL1.Ways) + "-way (" +
                    std::to_string(H.GpuL1.HitLatency) + "-cycle)"});
  Table.addRow({"s/w managed cache", "-",
                formatBytes(H.ScratchpadBytes) + " (" +
                    std::to_string(H.ScratchpadLatency) + "-cycle)"});
  Table.addRow({"L2", formatBytes(H.CpuL2.SizeBytes) + " " +
                          std::to_string(H.CpuL2.Ways) + "-way (" +
                          std::to_string(H.CpuL2.HitLatency) + "-cycle)",
                "N/A"});
  Table.addRow({"L3 (shared)",
                formatBytes(H.L3.SizeBytes) + " " +
                    std::to_string(H.L3.Ways) + "-way, 4 tiles (" +
                    std::to_string(H.L3.HitLatency) + "-cycle)",
                H.GpuSharesL3 ? "shared" : "not shared"});
  Table.addRow({"Interconnection", "Ring-bus network", ""});
  Table.addRow({"DRAM",
                "DDR3-1333, " + std::to_string(H.Dram.Channels) +
                    " controllers, 41.6GB/s, FR-FCFS",
                H.SeparateGpuDram ? "discrete device" : "shared device"});
  Table.addRow({"Pages", formatBytes(H.CpuPageBytes),
                formatBytes(H.GpuPageBytes)});
  return Table;
}

TextTable hetsim::renderTable3() {
  TextTable Table({"Name", "compute pattern", "#inst CPU", "#inst GPU",
                   "#inst serial", "# comms", "initial transfer (B)"});
  for (KernelId Kernel : allKernels()) {
    const KernelCharacteristics &K = kernelCharacteristics(Kernel);
    // Measure from the built program, not the metadata: the program must
    // reproduce Table III by construction.
    KernelProgram Program = KernelProgram::build(Kernel);
    Table.addRow({K.Name, K.Pattern, formatCount(Program.totalCpuInsts()),
                  formatCount(Program.totalGpuInsts()),
                  formatCount(Program.totalSerialInsts()),
                  std::to_string(Program.communicationCount()),
                  std::to_string(Program.initialTransferBytes())});
  }
  return Table;
}

TextTable hetsim::renderTable4(const CommParams &Params) {
  TextTable Table({"Name", "Description", "System", "Latency"});
  Table.addRow({"api-pci", "mem copy using PCI-E", "CPU+GPU, GMAC",
                std::to_string(Params.ApiPciBase) + "+trans_rate (" +
                    formatDouble(Params.PciBytesPerSec / 1e9, 0) + "GB/s)"});
  Table.addRow({"api-acq", "acquire action", "LRB",
                std::to_string(Params.ApiAcquire)});
  Table.addRow({"api-tr", "data transfer", "LRB",
                std::to_string(Params.ApiTransfer)});
  Table.addRow({"lib-pf", "page fault", "LRB",
                std::to_string(Params.LibPageFault)});
  return Table;
}

std::vector<std::vector<PartitionPoint>>
hetsim::sweepPartitions(const SystemConfig &Config,
                        const std::vector<PartitionSweep> &Sweeps,
                        unsigned Jobs, SweepTelemetry *Telemetry) {
  std::vector<SweepPoint> Grid;
  for (const PartitionSweep &Sweep : Sweeps)
    for (unsigned I = 0; I <= Sweep.Steps; ++I) {
      SystemConfig Variant = Config;
      Variant.CpuWorkFraction = double(I) / double(Sweep.Steps);
      Grid.emplace_back(std::move(Variant), Sweep.Kernel);
    }

  SweepRunner Runner(Jobs);
  std::vector<RunResult> Results = Runner.run(Grid);
  if (Telemetry)
    *Telemetry = Runner.telemetry();

  std::vector<std::vector<PartitionPoint>> Curves(Sweeps.size());
  size_t I = 0;
  for (size_t S = 0; S != Sweeps.size(); ++S)
    for (unsigned Step = 0; Step <= Sweeps[S].Steps; ++Step, ++I) {
      PartitionPoint Point;
      Point.CpuFraction = Grid[I].Config.CpuWorkFraction;
      Point.TotalNs = Results[I].Time.totalNs();
      Point.ParallelNs = Results[I].Time.ParallelNs;
      Curves[S].push_back(Point);
    }
  return Curves;
}

TextTable hetsim::renderTable5() {
  TextTable Table({"kernel", "Comp", "UNI", "PAS", "DIS", "ADSM"});
  static const KernelId Order[] = {KernelId::MatrixMul, KernelId::MergeSort,
                                   KernelId::Dct,       KernelId::Reduction,
                                   KernelId::Convolution,
                                   KernelId::KMeans};
  for (KernelId Kernel : Order) {
    const KernelCharacteristics &K = kernelCharacteristics(Kernel);
    Table.addRow(
        {K.Name, std::to_string(K.CompLines),
         std::to_string(
             communicationSourceLines(Kernel, AddressSpaceKind::Unified)),
         std::to_string(communicationSourceLines(
             Kernel, AddressSpaceKind::PartiallyShared)),
         std::to_string(
             communicationSourceLines(Kernel, AddressSpaceKind::Disjoint)),
         std::to_string(
             communicationSourceLines(Kernel, AddressSpaceKind::Adsm))});
  }
  return Table;
}
