//===- tests/race_detector_test.cpp - Whole-system race verifier ----------===//
//
// The cross-agent static race verifier: every shipped lowering must
// verify race-free, every constructed ordering bug must produce a
// structurally valid witness, co-run composition must distinguish
// private from shared allocations, and the sweep-wide lint report must
// be byte-identical across worker counts.
//
//===----------------------------------------------------------------------===//

#include "analysis/LintFuzzer.h"
#include "analysis/LintJson.h"
#include "analysis/SweepLinter.h"
#include "core/ConsistencyValidation.h"
#include "memory/FenceSemantics.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hetsim;

namespace {

size_t firstStepOfKind(const LoweredProgram &Program, ExecKind Kind) {
  for (size_t I = 0; I != Program.Steps.size(); ++I)
    if (Program.Steps[I].Kind == Kind)
      return I;
  ADD_FAILURE() << "no step of kind " << execKindName(Kind);
  return 0;
}

TEST(FenceSemantics, TableIFencesPerAddressSpace) {
  FenceSemantics Uni = FenceSemantics::make(AddressSpaceKind::Unified, false,
                                            false, ConsistencyModel::Weak);
  EXPECT_EQ(Uni.TransferInst, SpecialInst::None);
  EXPECT_TRUE(Uni.LaunchOrdersSharedRegion);
  EXPECT_FALSE(Uni.LazySerialPull);

  FenceSemantics Pas = FenceSemantics::make(AddressSpaceKind::PartiallyShared,
                                            true, false,
                                            ConsistencyModel::Weak);
  EXPECT_EQ(Pas.TransferInst, SpecialInst::ApiTr);
  EXPECT_TRUE(Pas.OwnershipRequired);
  EXPECT_FALSE(Pas.LaunchOrdersSharedRegion);

  FenceSemantics Dis = FenceSemantics::make(AddressSpaceKind::Disjoint, false,
                                            false, ConsistencyModel::Weak);
  EXPECT_EQ(Dis.TransferInst, SpecialInst::ApiPci);

  FenceSemantics Adsm = FenceSemantics::make(AddressSpaceKind::Adsm, false,
                                             true, ConsistencyModel::Weak);
  EXPECT_EQ(Adsm.TransferInst, SpecialInst::ApiPci);
  EXPECT_TRUE(Adsm.LazySerialPull);
  EXPECT_TRUE(Adsm.AsyncCopies);

  FenceSemantics Strong = FenceSemantics::make(
      AddressSpaceKind::Unified, false, false, ConsistencyModel::Strong);
  EXPECT_TRUE(Strong.everythingOrdered());
}

TEST(RaceDetectorShipped, WholeDesignSpaceVerifiesRaceFree) {
  for (const SweepPoint &Point : shippedDesignSpace()) {
    const SystemConfig &Config = Point.Config;
    LoweredProgram Program = lowerKernel(Point.Kernel, Config);
    RaceReport Report = RaceDetector::analyze(Program, Config);
    EXPECT_TRUE(Report.clean())
        << Config.Name << " / " << kernelName(Point.Kernel) << ": "
        << Report.summary();
  }
}

TEST(RaceDetectorShipped, StrongConsistencyOrdersEverything) {
  // A lowering bug that races under weak ordering is ordered (and so
  // unreported) under Strong, mirroring the dynamic checker.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t I = firstStepOfKind(Program, ExecKind::OwnershipToGpu);
  Program.Steps.erase(Program.Steps.begin() + static_cast<long>(I));
  EXPECT_FALSE(
      RaceDetector::analyze(Program, Config, ConsistencyModel::Weak)
          .clean());
  EXPECT_TRUE(
      RaceDetector::analyze(Program, Config, ConsistencyModel::Strong)
          .clean());
}

TEST(RaceDetectorWitness, DroppedOwnershipNamesTheSharedRegion) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t I = firstStepOfKind(Program, ExecKind::OwnershipToGpu);
  Program.Steps.erase(Program.Steps.begin() + static_cast<long>(I));

  CorunProgram Corun = corunFromSingle(std::move(Program), Config);
  RaceDetector Detector(Corun);
  RaceReport Report = Detector.detect();
  ASSERT_FALSE(Report.clean());
  const RaceWitness &Witness = Report.Races.front();
  EXPECT_NE(Witness.Location.find("@shared"), std::string::npos);
  EXPECT_TRUE(Witness.First.OwnershipScoped);
  EXPECT_NE(Witness.MissingEdge.find("api-acq"), std::string::npos);
  std::string Error;
  EXPECT_TRUE(validateWitness(Detector, Witness, Error)) << Error;
}

TEST(RaceDetectorWitness, UndrainedReadbackRacesWithProgramEnd) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t Last = HbGraph::npos;
  for (size_t I = 0; I != Program.Steps.size(); ++I)
    if (Program.Steps[I].Kind == ExecKind::Transfer &&
        Program.Steps[I].Dir == TransferDir::DeviceToHost)
      Last = I;
  ASSERT_NE(Last, HbGraph::npos);
  Program.Steps[Last].Async = true;

  CorunProgram Corun = corunFromSingle(std::move(Program), Config);
  RaceDetector Detector(Corun);
  RaceReport Report = Detector.detect();
  ASSERT_FALSE(Report.clean());
  const RaceWitness &Witness = Report.Races.front();
  EXPECT_NE(Witness.Location.find("@host"), std::string::npos);
  EXPECT_NE(Witness.MissingEdge.find("dma-wait"), std::string::npos);
  // One side of the pair executes on the DMA engine.
  EXPECT_TRUE(Witness.First.Lane == HbLane::Dma ||
              Witness.Second.Lane == HbLane::Dma);
  std::string Error;
  EXPECT_TRUE(validateWitness(Detector, Witness, Error)) << Error;
}

TEST(RaceDetectorCorun, PrivateCorunsStayRaceFreeEverywhere) {
  for (CaseStudy Study : allCaseStudies()) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    CorunProgram Corun =
        lowerCorun({KernelId::Reduction, KernelId::MatrixMul}, Config);
    RaceReport Report = RaceDetector(Corun).detect();
    EXPECT_TRUE(Report.clean())
        << Config.Name << ": " << Report.summary();
    EXPECT_TRUE(validateCorunRaceFree(Corun)) << Config.Name;
  }
}

TEST(RaceDetectorCorun, SharedOutputRacesAcrossAgents) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Fusion);
  CorunProgram Corun =
      lowerCorun({KernelId::Reduction, KernelId::Reduction}, Config, {"c"});
  ASSERT_EQ(Corun.SharedBases.size(), 1u);
  RaceDetector Detector(Corun);
  RaceReport Report = Detector.detect();
  ASSERT_FALSE(Report.clean());
  for (const RaceWitness &Witness : Report.Races) {
    EXPECT_NE(Witness.First.Agent, Witness.Second.Agent);
    EXPECT_EQ(Witness.Location.find("a0."), std::string::npos)
        << "shared location must be unqualified: " << Witness.Location;
    std::string Error;
    EXPECT_TRUE(validateWitness(Detector, Witness, Error)) << Error;
  }
}

TEST(RaceDetectorCorun, SharedInputIsHarmlessWithoutApertureCopies) {
  // Agents only read a shared input in host/unified spaces, so sharing
  // one is legal there; under an ownership-disciplined shared region
  // each agent stages its own aperture copy into the same allocation,
  // which the verifier must flag as cross-agent write-write.
  CorunProgram Ok = lowerCorun({KernelId::Reduction, KernelId::Reduction},
                               SystemConfig::forCaseStudy(CaseStudy::Fusion),
                               {"a"});
  EXPECT_TRUE(RaceDetector(Ok).detect().clean());
  CorunProgram Aperture =
      lowerCorun({KernelId::Reduction, KernelId::Reduction},
                 SystemConfig::forCaseStudy(CaseStudy::Lrb), {"a"});
  EXPECT_FALSE(RaceDetector(Aperture).detect().clean());
}

TEST(RaceDetectorCorun, WitnessCapTruncatesAndSaysSo) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Fusion);
  CorunProgram Corun =
      lowerCorun({KernelId::Reduction, KernelId::Reduction}, Config, {"c"});
  RaceReport Report = RaceDetector(Corun).detect(/*MaxRaces=*/2);
  EXPECT_EQ(Report.Races.size(), 2u);
  EXPECT_TRUE(Report.Truncated);
}

TEST(CorunSchedules, EveryScheduleIsAFairMergeOfProgramOrders) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  CorunProgram Corun =
      lowerCorun({KernelId::Reduction, KernelId::Dct}, Config);
  std::vector<CorunSchedule> Schedules = corunSchedules(Corun, 3, 17);
  // Two rotations + round-robin + three random merges.
  ASSERT_EQ(Schedules.size(), 6u);
  for (const CorunSchedule &Schedule : Schedules) {
    ASSERT_EQ(Schedule.size(), Corun.totalSteps());
    std::vector<size_t> Next(Corun.Agents.size(), 0);
    for (const auto &Entry : Schedule) {
      ASSERT_LT(Entry.first, Corun.Agents.size());
      EXPECT_EQ(Entry.second, Next[Entry.first]) << "out of program order";
      Next[Entry.first] += 1;
    }
    for (size_t A = 0; A != Corun.Agents.size(); ++A)
      EXPECT_EQ(Next[A], Corun.Agents[A].Program.Steps.size());
  }
}

TEST(SweepLint, ReportIsByteIdenticalAcrossWorkerCounts) {
  std::vector<SweepPoint> Points = shippedDesignSpace();
  SweepLintSummary Serial = lintSweep(Points, /*Jobs=*/1);
  SweepLintSummary Parallel = lintSweep(Points, /*Jobs=*/8);
  ASSERT_EQ(Serial.points(), Parallel.points());
  EXPECT_EQ(Serial.render(), Parallel.render());
  for (size_t I = 0; I != Serial.Results.size(); ++I) {
    EXPECT_EQ(Serial.Results[I].System, Parallel.Results[I].System);
    EXPECT_EQ(Serial.Results[I].Rendered, Parallel.Results[I].Rendered);
    EXPECT_EQ(Serial.Results[I].Races.clean(),
              Parallel.Results[I].Races.clean());
  }
}

TEST(SweepLint, DirtyPointsRenderDeterministicallyToo) {
  // Push a racy point through the sweep path: diagnostics and witnesses
  // must come out in the same bytes at any job count.
  std::vector<SweepPoint> Points;
  SystemConfig Broken = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  for (KernelId Kernel : allKernels())
    Points.emplace_back(Broken, Kernel);
  SweepLintSummary A = lintSweep(Points, 1);
  SweepLintSummary B = lintSweep(Points, 4);
  EXPECT_EQ(A.render(), B.render());
}

TEST(LintJson, RoundTripsAndValidates) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t I = firstStepOfKind(Program, ExecKind::OwnershipToCpu);
  Program.Steps.erase(Program.Steps.begin() + static_cast<long>(I));

  LintJsonPoint Point;
  Point.System = Config.Name;
  Point.Kernels = {kernelName(KernelId::Reduction)};
  Point.Report = lintProgram(Program, Config);
  Point.Races = RaceDetector::analyze(Program, Config);
  Point.DynamicallyRaceFree = validateRaceFree(Program);
  ASSERT_FALSE(Point.Races.clean());

  std::string Doc = writeLintJson({Point}, ConsistencyModel::Weak);
  std::string Error;
  EXPECT_TRUE(validateLintJson(Doc, Error)) << Error;

  // Tampering with a summary count must be caught.
  size_t Pos = Doc.rfind("\"races\":");
  ASSERT_NE(Pos, std::string::npos);
  std::string Tampered = Doc;
  Tampered.replace(Pos, 9, "\"races\":9");
  EXPECT_FALSE(validateLintJson(Tampered, Error));

  EXPECT_FALSE(validateLintJson("{\"schema\":\"hetsim-metrics-v1\"}", Error));
  EXPECT_NE(Error.find("unknown schema"), std::string::npos);
}

} // namespace
