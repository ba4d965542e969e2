//===- tests/sweep_test.cpp - SweepRunner + determinism tests -------------===//
///
/// \file
/// The parallel sweep engine must be a drop-in replacement for the serial
/// experiment loops: same results, in submission order, at any job count.
/// The figure-level determinism tests assert byte-identical rendered
/// tables between jobs=1 and jobs=8.
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "core/HeteroSimulator.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace hetsim;

namespace {

std::vector<SweepPoint> smallGrid() {
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : {CaseStudy::IdealHetero, CaseStudy::CpuGpu})
    for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort})
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);
  return Points;
}

TEST(SweepRunner, MatchesSerialSimulation) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Runner(2);
  std::vector<RunResult> Parallel = Runner.run(Points);
  ASSERT_EQ(Parallel.size(), Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    HeteroSimulator Simulator(Points[I].Config);
    RunResult Serial = Simulator.run(Points[I].Kernel);
    EXPECT_DOUBLE_EQ(Parallel[I].Time.totalNs(), Serial.Time.totalNs())
        << "point " << I;
    EXPECT_EQ(Parallel[I].TransferredBytes, Serial.TransferredBytes);
    EXPECT_EQ(Parallel[I].PageFaults, Serial.PageFaults);
  }
}

TEST(SweepRunner, ResultsInSubmissionOrderAcrossJobCounts) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Serial(1);
  SweepRunner Wide(8);
  std::vector<RunResult> A = Serial.run(Points);
  std::vector<RunResult> B = Wide.run(Points);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_DOUBLE_EQ(A[I].Time.totalNs(), B[I].Time.totalNs());
    EXPECT_EQ(A[I].TransferredBytes, B[I].TransferredBytes);
    EXPECT_EQ(A[I].OwnershipActions, B[I].OwnershipActions);
  }
}

TEST(SweepRunner, CommOverridesBakedIntoConfigSurvive) {
  // Regression: SweepRunner must not reset comm.* params that were baked
  // into the config via forCaseStudy(Study, Overrides).
  ConfigStore Overrides;
  Overrides.setInt("comm.lib_pf", 0);
  std::vector<SweepPoint> Points;
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb),
                      KernelId::Reduction);
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Lrb, Overrides),
                      KernelId::Reduction);
  SweepRunner Runner(1);
  std::vector<RunResult> Results = Runner.run(Points);
  EXPECT_LT(Results[1].Time.CommunicationNs, Results[0].Time.CommunicationNs);
}

TEST(SweepRunner, TelemetryCountsPoints) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Runner(2);
  Runner.run(Points);
  const SweepTelemetry &T = Runner.telemetry();
  EXPECT_EQ(T.Points, Points.size());
  EXPECT_EQ(T.Jobs, 2u);
  EXPECT_GT(T.WallSeconds, 0.0);
  EXPECT_GT(T.SimNsTotal, 0.0);
  EXPECT_GT(T.pointsPerSecond(), 0.0);
  EXPECT_GT(T.MaxPointSeconds, 0.0);
  EXPECT_LE(T.MaxPointSeconds, T.WallSeconds);
}

TEST(SweepRunner, PhaseSecondsNormalizePerWorker) {
  // The old formula (wall - gen, clamped at 0) reported simulate=0 the
  // moment summed per-thread gen time exceeded the wall clock — exactly
  // what happens on an oversubscribed host. The normalized form scales
  // phase shares of busy time into wall seconds instead.
  SweepTelemetry T;
  T.WallSeconds = 1.0;
  T.BusySeconds = 4.0; // 4 workers, fully busy.
  T.TraceGenSeconds = 3.0;
  EXPECT_DOUBLE_EQ(T.traceGenWallSeconds(), 0.75);
  EXPECT_DOUBLE_EQ(T.simulateSeconds(), 0.25);
  // Serial reduction: busy == wall, so the phases are plain seconds.
  SweepTelemetry S;
  S.WallSeconds = 2.0;
  S.BusySeconds = 2.0;
  S.TraceGenSeconds = 0.5;
  EXPECT_DOUBLE_EQ(S.traceGenWallSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(S.simulateSeconds(), 1.5);
  // A phase share can never exceed the wall clock.
  SweepTelemetry O;
  O.WallSeconds = 1.0;
  O.BusySeconds = 2.0;
  O.TraceGenSeconds = 3.0; // inconsistent input: clamp to wall, not 0.
  EXPECT_DOUBLE_EQ(O.traceGenWallSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(O.simulateSeconds(), 0.0);
}

TEST(SweepRunner, TelemetryAttributesBusyAndSimulateTime) {
  std::vector<SweepPoint> Points = smallGrid();
  SweepRunner Runner(2);
  Runner.run(Points);
  const SweepTelemetry &T = Runner.telemetry();
  EXPECT_GT(T.BusySeconds, 0.0);
  // The simulate share must survive parallel gen attribution (the
  // clamp-to-0 regression), and the two phases partition the wall.
  EXPECT_GT(T.simulateSeconds(), 0.0);
  EXPECT_LE(T.traceGenWallSeconds() + T.simulateSeconds(),
            T.WallSeconds * 1.0001);
  EXPECT_GE(T.TraceGenSeconds, 0.0);
  // No result store configured: counters stay zero.
  EXPECT_EQ(T.StoreHits, 0u);
  EXPECT_EQ(T.StoreMisses, 0u);
}

// A discrete-GPU point generates its GPU half's records on a helper
// thread (DESIGN.md §11). The point's worker is credited with that time,
// so a serial sweep's gen share is the whole process's generation time.
TEST(SweepRunner, TraceGenCountsTheHelperThread) {
  std::vector<SweepPoint> Points;
  for (KernelId Kernel :
       {KernelId::Reduction, KernelId::Dct, KernelId::KMeans})
    Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::CpuGpu), Kernel);
  ASSERT_TRUE(roundHalvesShareNothing(Points.front().Config));
  SweepRunner Runner(1);
  const uint64_t Before = traceGenNanos();
  Runner.run(Points);
  const uint64_t Delta = traceGenNanos() - Before;
  EXPECT_GT(Delta, 0u);
  EXPECT_EQ(Runner.telemetry().TraceGenSeconds, double(Delta) * 1e-9);
}

TEST(SweepRunner, AppendBenchTimingWritesJsonLine) {
  std::string Path = ::testing::TempDir() + "hetsim_timing_test.json";
  std::remove(Path.c_str());
  ::setenv("HETSIM_TIMING_JSON", Path.c_str(), 1);
  SweepTelemetry T;
  T.Jobs = 2;
  T.Points = 4;
  T.WallSeconds = 0.25;
  T.SimNsTotal = 1000.0;
  bool Ok = appendBenchTiming("unit", T);
  ::unsetenv("HETSIM_TIMING_JSON");
  ASSERT_TRUE(Ok);
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Line = Buffer.str();
  EXPECT_NE(Line.find("\"bench\":\"unit\""), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"points\":4"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"jobs\":2"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"wall_s\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"points_per_s\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"store_hits\":"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"store_misses\":"), std::string::npos) << Line;
  EXPECT_LT(Line.find("\"simulate_s\":"), Line.find("\"store_hits\":"))
      << Line;
  // Appended last, so scripts matching the older fields in order still do.
  EXPECT_LT(Line.find("\"store_misses\":"), Line.find("\"max_point_s\":"))
      << Line;
  std::remove(Path.c_str());
}

TEST(SweepRunner, DispatchOrderStartsMostRecordsFirst) {
  std::vector<uint64_t> Records = {5, 9, 5, 1, 9, 7};
  // More records first; equal counts keep submission order.
  EXPECT_EQ(dispatchOrder(Records, 4),
            (std::vector<size_t>{1, 4, 5, 0, 2, 3}));
  EXPECT_EQ(dispatchOrder(Records, 2), dispatchOrder(Records, 8));
  // One job runs the serial harness: submission order.
  EXPECT_EQ(dispatchOrder(Records, 1),
            (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(dispatchOrder({}, 4).empty());
}

// Regression: the ablation_contention sweep crashed in about 1% of jobs=4
// runs while its plain and interleaved points shared trace buffers across
// workers. Its eight points (two kernels x {4, 1} DRAM channels x {plain,
// interleaved}) share trace recipes; at jobs=4 they must reproduce the
// serial results bit for bit, round after round.
TEST(SweepRunner, ContentionAblationParallelMatchesSerial) {
  std::vector<SweepPoint> Points;
  for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort})
    for (unsigned Channels : {4u, 1u})
      for (bool Interleaved : {false, true}) {
        ConfigStore Overrides;
        Overrides.setBool("sys.interleaved_contention", Interleaved);
        SystemConfig Config =
            SystemConfig::forCaseStudy(CaseStudy::IdealHetero, Overrides);
        Config.Hier.Dram.Channels = Channels;
        Points.emplace_back(std::move(Config), Kernel);
      }
  // The parallel rounds go first, so the first one starts from a cold
  // process as the bench does.
  std::vector<std::vector<RunResult>> Rounds;
  for (unsigned Round = 0; Round != 3; ++Round)
    Rounds.push_back(SweepRunner(4).run(Points));
  std::vector<RunResult> Serial = SweepRunner(1).run(Points);
  for (size_t Round = 0; Round != Rounds.size(); ++Round) {
    ASSERT_EQ(Rounds[Round].size(), Serial.size());
    for (size_t I = 0; I != Points.size(); ++I)
      EXPECT_EQ(exactText(Rounds[Round][I]), exactText(Serial[I]))
          << "round " << Round << " point " << I;
  }
}

// Figure-level determinism: the rendered tables feeding the paper's
// Figures 5-7 must be byte-identical between the serial and the widest
// parallel harness.
TEST(Determinism, Figures5And6AreJobCountInvariant) {
  std::vector<ExperimentRow> Serial = runCaseStudies({}, 1);
  std::vector<ExperimentRow> Wide = runCaseStudies({}, 8);
  EXPECT_EQ(renderFigure5(Serial).render(), renderFigure5(Wide).render());
  EXPECT_EQ(renderFigure6(Serial).render(), renderFigure6(Wide).render());
}

TEST(Determinism, Figure7IsJobCountInvariant) {
  std::vector<ExperimentRow> Serial = runAddressSpaceStudy({}, 1);
  std::vector<ExperimentRow> Wide = runAddressSpaceStudy({}, 8);
  EXPECT_EQ(renderFigure7(Serial).render(), renderFigure7(Wide).render());
}

TEST(Determinism, PartitionSweepIsJobCountInvariant) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  std::vector<PartitionPoint> Serial =
      sweepPartitions(Config, {{KernelId::Reduction, 10}}, 1).front();
  std::vector<PartitionPoint> Wide =
      sweepPartitions(Config, {{KernelId::Reduction, 10}}, 8).front();
  ASSERT_EQ(Serial.size(), Wide.size());
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_DOUBLE_EQ(Serial[I].CpuFraction, Wide[I].CpuFraction);
    EXPECT_DOUBLE_EQ(Serial[I].TotalNs, Wide[I].TotalNs);
    EXPECT_DOUBLE_EQ(Serial[I].ParallelNs, Wide[I].ParallelNs);
  }
}

} // namespace
