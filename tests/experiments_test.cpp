//===- tests/experiments_test.cpp - Experiment-harness tests --------------===//

#include "core/Experiments.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Render helpers.
//===----------------------------------------------------------------------===//

namespace {
std::vector<ExperimentRow> smallStudy() {
  // Two cheap kernels on two systems: enough structure for the renderers.
  std::vector<ExperimentRow> Rows;
  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::IdealHetero}) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    HeteroSimulator Sim(Config);
    for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort}) {
      ExperimentRow Row;
      Row.System = Config.Name;
      Row.Kernel = Kernel;
      Row.Result = Sim.run(Kernel);
      Rows.push_back(std::move(Row));
    }
  }
  return Rows;
}
} // namespace

TEST(ExperimentRender, Figure5NormalizesToIdeal) {
  std::vector<ExperimentRow> Rows = smallStudy();
  std::string Csv = renderFigure5(Rows).renderCsv();
  // The IDEAL rows normalize to exactly 1.000.
  EXPECT_NE(Csv.find("IDEAL-HETERO"), std::string::npos);
  EXPECT_NE(Csv.find(",1.000,"), std::string::npos);
}

TEST(ExperimentRender, Figure6ReportsBytes) {
  std::vector<ExperimentRow> Rows = smallStudy();
  std::string Csv = renderFigure6(Rows).renderCsv();
  EXPECT_NE(Csv.find("480,768"), std::string::npos); // Reduction traffic.
}

TEST(ExperimentRender, RowCountsMatchInputs) {
  std::vector<ExperimentRow> Rows = smallStudy();
  EXPECT_EQ(renderFigure5(Rows).rowCount(), Rows.size());
  EXPECT_EQ(renderFigure6(Rows).rowCount(), Rows.size());
}

//===----------------------------------------------------------------------===//
// CSV export.
//===----------------------------------------------------------------------===//

TEST(CsvExport, DisabledWithoutEnvVar) {
  unsetenv("HETSIM_CSV_DIR");
  TextTable Table({"a"});
  EXPECT_FALSE(maybeExportCsv("unused", Table));
}

TEST(CsvExport, WritesFileWhenEnabled) {
  setenv("HETSIM_CSV_DIR", "/tmp", 1);
  TextTable Table({"col1", "col2"});
  Table.addRow({"x", "y"});
  EXPECT_TRUE(maybeExportCsv("hetsim_csv_export_test", Table));
  unsetenv("HETSIM_CSV_DIR");

  std::FILE *File = std::fopen("/tmp/hetsim_csv_export_test.csv", "r");
  ASSERT_NE(File, nullptr);
  char Buffer[64] = {};
  ASSERT_NE(std::fgets(Buffer, sizeof(Buffer), File), nullptr);
  std::fclose(File);
  EXPECT_STREQ(Buffer, "col1,col2\n");
  std::remove("/tmp/hetsim_csv_export_test.csv");
}

TEST(CsvExport, UnwritableDirectoryFailsGracefully) {
  setenv("HETSIM_CSV_DIR", "/nonexistent_hetsim_dir", 1);
  TextTable Table({"a"});
  EXPECT_FALSE(maybeExportCsv("x", Table));
  unsetenv("HETSIM_CSV_DIR");
}

//===----------------------------------------------------------------------===//
// Sandy-Bridge-style preset (Section II-A2).
//===----------------------------------------------------------------------===//

TEST(SandyBridge, DisjointButSharedLlc) {
  SystemConfig Config = SystemConfig::sandyBridgeStyle();
  EXPECT_EQ(Config.AddrSpace, AddressSpaceKind::Disjoint);
  EXPECT_TRUE(Config.Hier.GpuSharesL3);
  EXPECT_EQ(Config.Connection, ConnectionKind::MemoryController);
}

TEST(SandyBridge, GpuTrafficReachesSharedL3) {
  HeteroSimulator Sim(SystemConfig::sandyBridgeStyle());
  Sim.run(KernelId::Reduction);
  EXPECT_GT(Sim.memory().l3().stats().Accesses, 0u);

  HeteroSimulator Fusion(SystemConfig::forCaseStudy(CaseStudy::Fusion));
  Fusion.run(KernelId::Reduction);
  // Fusion's GPU bypasses the L3; only CPU L2 misses reach it.
  EXPECT_LT(Fusion.memory().l3().stats().Accesses,
            Sim.memory().l3().stats().Accesses);
}

//===----------------------------------------------------------------------===//
// Figure 6 in closed form: discrete-GPU communication is Table IV
// arithmetic.
//===----------------------------------------------------------------------===//

// Every CPU+GPU transfer pays the 33,250-cycle API base at 3.5 GHz
// (9.5 us) plus its bytes at 16 GB/s, rounded up to whole CPU cycles.
// The constants are Table IV's, written out rather than read from
// CommParams, so the check holds the model to the paper, not to itself.
TEST(Fig6ClosedForm, CpuGpuCommIsApiCostPlusBandwidth) {
  const double CpuGhz = 3.5;
  const double ApiBaseNs = 33250 / CpuGhz;
  const double PciBytesPerNs = 16.0;
  const SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  for (KernelId Kernel : allKernels()) {
    HeteroSimulator Sim(Config);
    const RunResult R = Sim.run(Kernel);
    ASSERT_GT(R.TransferCount, 0u) << kernelName(Kernel);
    const double Transfers = double(R.TransferCount);
    EXPECT_NEAR(R.Time.CommunicationNs,
                Transfers * ApiBaseNs +
                    double(R.TransferredBytes) / PciBytesPerNs,
                Transfers / CpuGhz)
        << kernelName(Kernel);
    // Two committed rows: 2 x 9.5 + 480,768 B / 16 GB/s = 49.05 us and
    // 6 x 9.5 + 10.11 = 67.11 us.
    if (Kernel == KernelId::Reduction) {
      EXPECT_EQ(R.TransferCount, 2u);
      EXPECT_EQ(R.TransferredBytes, 480768u);
      EXPECT_NEAR(R.Time.CommunicationNs / 1e3, 49.05, 0.005);
    }
    if (Kernel == KernelId::KMeans) {
      EXPECT_EQ(R.TransferCount, 6u);
      EXPECT_NEAR(R.Time.CommunicationNs / 1e3, 67.11, 0.005);
    }
  }
}

//===----------------------------------------------------------------------===//
// Push accounting.
//===----------------------------------------------------------------------===//

TEST(PushAccounting, ExplicitSharedLocalityChargesPushTime) {
  SystemConfig Config =
      SystemConfig::forAddressSpaceStudy(AddressSpaceKind::PartiallyShared);
  Config.Locality.Shared = SharedLocality::Explicit;
  HeteroSimulator Sim(Config);
  RunResult R = Sim.run(KernelId::Reduction);
  EXPECT_GT(R.PushNs, 0.0);
  // Push time is part of the 3-way breakdown (attributed to comm).
  EXPECT_GE(R.Time.CommunicationNs, R.PushNs - 1e-6);
}