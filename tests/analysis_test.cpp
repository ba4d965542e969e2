//===- tests/analysis_test.cpp - Static memory-model linter ---------------===//
//
// Injected-bug fixtures: each mutation of a shipped lowering must produce
// exactly the expected diagnostic at the expected step, and the whole
// shipped design space must lint clean with the dynamic ConsistencyChecker
// agreeing (the differential oracle).
//
//===----------------------------------------------------------------------===//

#include "analysis/LintJson.h"
#include "analysis/SweepLinter.h"
#include "core/ConsistencyValidation.h"
#include "core/HeteroSimulator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace hetsim;

namespace {

size_t firstStepOfKind(const LoweredProgram &Program, ExecKind Kind) {
  for (size_t I = 0; I != Program.Steps.size(); ++I)
    if (Program.Steps[I].Kind == Kind)
      return I;
  ADD_FAILURE() << "no step of kind " << execKindName(Kind);
  return 0;
}

void eraseStep(LoweredProgram &Program, size_t Index) {
  Program.Steps.erase(Program.Steps.begin() + long(Index));
}

} // namespace

//===----------------------------------------------------------------------===//
// Happens-before graph
//===----------------------------------------------------------------------===//

TEST(HbGraph, DriverOrderReachesEnd) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  HbGraph Graph = HbGraph::build(Program, Config);
  EXPECT_TRUE(Graph.reaches(Graph.startNode(), Graph.endNode()));
  for (size_t I = 0; I != Program.Steps.size(); ++I)
    EXPECT_TRUE(Graph.reaches(Graph.stepNode(I), Graph.endNode()));
  EXPECT_FALSE(Graph.reaches(Graph.endNode(), Graph.startNode()));
  EXPECT_TRUE(Graph.undrainedTransfers().empty());
}

TEST(HbGraph, AsyncTransfersGetCompletionNodes) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::KMeans, Config);
  HbGraph Graph = HbGraph::build(Program, Config);
  unsigned Completions = 0;
  for (size_t I = 0; I != Program.Steps.size(); ++I)
    if (Graph.dmaNode(I) != HbGraph::npos)
      ++Completions;
  EXPECT_EQ(Completions, Program.countSteps(ExecKind::Transfer));
  // The terminal DmaWait drains everything.
  EXPECT_TRUE(Graph.undrainedTransfers().empty());
}

TEST(HbGraph, DotRenderingNamesEverything) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  HbGraph Graph = HbGraph::build(Program, Config);
  std::string Dot = Graph.renderDot(Program);
  EXPECT_NE(Dot.find("digraph hb"), std::string::npos);
  EXPECT_NE(Dot.find("dma-drain"), std::string::npos);
  EXPECT_NE(Dot.find("parallel"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Injected-bug fixtures
//===----------------------------------------------------------------------===//

TEST(LintFixture, DroppedOwnershipTransfer) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t Release = firstStepOfKind(Program, ExecKind::OwnershipToGpu);
  eraseStep(Program, Release);

  LintReport Report = lintProgram(Program, Config);
  ASSERT_TRUE(hasKind(Report, LintKind::MissingOwnership));
  const LintDiagnostic *D = findKind(Report, LintKind::MissingOwnership);
  EXPECT_EQ(D->Severity, LintSeverity::Error);
  EXPECT_EQ(Program.Steps[D->StepIndex].Kind, ExecKind::ParallelCompute);
  EXPECT_EQ(D->StepIndex,
            firstStepOfKind(Program, ExecKind::ParallelCompute));
  // Note the dynamic checker does NOT catch this one: the kernel
  // launch/join still orders every access, so the replay is race-free.
  // The ownership discipline is a static-only rule — exactly why the
  // linter exists alongside the ConsistencyChecker.
  EXPECT_TRUE(validateRaceFree(Program, ConsistencyModel::Weak));
}

TEST(LintFixture, RemovedDmaWait) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::KMeans, Config);
  ASSERT_EQ(Program.Steps.back().Kind, ExecKind::DmaWait);
  size_t LastTransfer = Program.Steps.size();
  for (size_t I = Program.Steps.size(); I-- != 0;)
    if (Program.Steps[I].Kind == ExecKind::Transfer) {
      LastTransfer = I;
      break;
    }
  eraseStep(Program, Program.Steps.size() - 1);

  LintReport Report = lintProgram(Program, Config);
  ASSERT_TRUE(hasKind(Report, LintKind::MissingDmaWait));
  const LintDiagnostic *D = findKind(Report, LintKind::MissingDmaWait);
  EXPECT_EQ(D->Severity, LintSeverity::Error);
  // Anchored at the copy nothing drains: the final device-to-host
  // transfer of the last round.
  EXPECT_EQ(D->StepIndex, LastTransfer);
  EXPECT_EQ(Report.Diags.size(), 1u);
}

TEST(LintFixture, DroppedInitialTransfer) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t First = firstStepOfKind(Program, ExecKind::Transfer);
  ASSERT_EQ(Program.Steps[First].Dir, TransferDir::HostToDevice);
  eraseStep(Program, First);

  LintReport Report = lintProgram(Program, Config);
  ASSERT_TRUE(hasKind(Report, LintKind::UseBeforeTransfer));
  const LintDiagnostic *D = findKind(Report, LintKind::UseBeforeTransfer);
  EXPECT_EQ(D->Severity, LintSeverity::Error);
  EXPECT_EQ(Program.Steps[D->StepIndex].Kind, ExecKind::ParallelCompute);
}

TEST(LintFixture, ReorderedTransferOut) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t Par = firstStepOfKind(Program, ExecKind::ParallelCompute);
  size_t Out = Par + 1;
  ASSERT_EQ(Program.Steps[Out].Kind, ExecKind::Transfer);
  ASSERT_EQ(Program.Steps[Out].Dir, TransferDir::DeviceToHost);
  std::swap(Program.Steps[Par], Program.Steps[Out]);

  LintReport Report = lintProgram(Program, Config);
  // Moved before the round, the copy is dead (nothing to read back yet)
  // and the host later merges results that never came back.
  ASSERT_TRUE(hasKind(Report, LintKind::RedundantTransfer));
  EXPECT_EQ(findKind(Report, LintKind::RedundantTransfer)->StepIndex, Par);
  ASSERT_TRUE(hasKind(Report, LintKind::StaleReadback));
  // One StaleReadback anchors at the serial merge that reads results
  // never copied back (a second, end-anchored one reports the results
  // still stranded on the device when the program exits).
  bool AtSerial = false;
  for (const LintDiagnostic &Diag : Report.Diags)
    if (Diag.Kind == LintKind::StaleReadback &&
        Program.Steps[Diag.StepIndex].Kind == ExecKind::SerialCompute) {
      AtSerial = true;
      EXPECT_EQ(Diag.Severity, LintSeverity::Error);
    }
  EXPECT_TRUE(AtSerial);
}

TEST(LintFixture, DuplicatedTransfer) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t First = firstStepOfKind(Program, ExecKind::Transfer);
  Program.Steps.insert(Program.Steps.begin() + long(First),
                       Program.Steps[First]);

  LintReport Report = lintProgram(Program, Config);
  EXPECT_EQ(Report.errorCount(), 0u);
  ASSERT_TRUE(hasKind(Report, LintKind::RedundantTransfer));
  EXPECT_EQ(findKind(Report, LintKind::RedundantTransfer)->StepIndex,
            First + 1);
}

TEST(LintFixture, StaleReadbackAtProgramEnd) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  // Convolution ends on a TransferOut; dropping it leaves the last
  // round's results on the device when the program exits.
  LoweredProgram Program = lowerKernel(KernelId::Convolution, Config);
  ASSERT_EQ(Program.Steps.back().Kind, ExecKind::Transfer);
  ASSERT_EQ(Program.Steps.back().Dir, TransferDir::DeviceToHost);
  eraseStep(Program, Program.Steps.size() - 1);

  LintReport Report = lintProgram(Program, Config);
  ASSERT_TRUE(hasKind(Report, LintKind::StaleReadback));
  const LintDiagnostic *D = findKind(Report, LintKind::StaleReadback);
  EXPECT_EQ(Program.Steps[D->StepIndex].Kind, ExecKind::ParallelCompute);
}

TEST(LintFixture, DoubleOwnershipRelease) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  size_t Release = firstStepOfKind(Program, ExecKind::OwnershipToGpu);
  Program.Steps.insert(Program.Steps.begin() + long(Release),
                       Program.Steps[Release]);

  LintReport Report = lintProgram(Program, Config);
  EXPECT_EQ(Report.errorCount(), 0u);
  ASSERT_TRUE(hasKind(Report, LintKind::DoubleOwnership));
  EXPECT_EQ(findKind(Report, LintKind::DoubleOwnership)->StepIndex,
            Release + 1);
}

TEST(LintFixture, TransferInUnifiedSpaceIsModelMismatch) {
  SystemConfig Config =
      SystemConfig::forCaseStudy(CaseStudy::IdealHetero);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  ExecStep Step;
  Step.Kind = ExecKind::Transfer;
  Step.Dir = TransferDir::HostToDevice;
  Step.Objects.push_back(
      kernelDataObjects(KernelId::Reduction).front().Name);
  Program.Steps.insert(Program.Steps.begin(), std::move(Step));

  LintReport Report = lintProgram(Program, Config);
  ASSERT_TRUE(hasKind(Report, LintKind::ModelMismatch));
  EXPECT_EQ(findKind(Report, LintKind::ModelMismatch)->StepIndex, 0u);
}

TEST(LintFixture, MangledStructureIsReported) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  eraseStep(Program, firstStepOfKind(Program, ExecKind::SerialCompute));

  LintReport Report = lintProgram(Program, Config);
  EXPECT_TRUE(hasKind(Report, LintKind::StructureMismatch));
}

//===----------------------------------------------------------------------===//
// Pre-run driver hook
//===----------------------------------------------------------------------===//

using LintHookDeathTest = ::testing::Test;

TEST(LintHookDeathTest, BrokenLoweringAbortsBeforeSimulation) {
  // The missing-wait fixture is invisible to the dynamic checker (a
  // DmaWait emits no events) and to the locality validator, so only the
  // pre-run lint hook can refuse it.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::KMeans, Config);
  ASSERT_EQ(Program.Steps.back().Kind, ExecKind::DmaWait);
  Program.Steps.pop_back();
  HeteroSimulator Simulator(Config);
  EXPECT_DEATH(Simulator.runLowered(Program), "pre-run lint");
  // No environment setting turns the hook off.
  EXPECT_DEATH(
      {
        setenv("HETSIM_LINT", "0", 1);
        Simulator.runLowered(Program);
      },
      "pre-run lint");
}

//===----------------------------------------------------------------------===//
// Sweep-wide differential oracle
//===----------------------------------------------------------------------===//

TEST(SweepLint, ShippedDesignSpaceIsClean) {
  std::vector<SweepPoint> Points = shippedDesignSpace();
  EXPECT_EQ(Points.size(), size_t(9 * NumKernels));
  SweepLintSummary Summary = lintSweep(Points, 4);
  ASSERT_EQ(Summary.points(), Points.size());
  for (const SweepLintResult &R : Summary.Results) {
    EXPECT_TRUE(R.Report.clean())
        << R.System << " / " << kernelName(R.Kernel) << ": "
        << R.Report.Diags.size() << " diagnostic(s), first: "
        << (R.Report.Diags.empty() ? ""
                                   : R.Report.Diags.front().Message);
    EXPECT_TRUE(R.DynamicallyRaceFree)
        << R.System << " / " << kernelName(R.Kernel);
    EXPECT_FALSE(R.disagreement());
  }
  EXPECT_TRUE(Summary.clean());
  EXPECT_NE(Summary.summary().find("0 static/dynamic disagreements"),
            std::string::npos);
}

TEST(SweepLint, SummaryCountsFixturePoints) {
  // A deliberately empty sweep stays clean and renders.
  SweepLintSummary Empty = lintSweep({}, 1);
  EXPECT_EQ(Empty.points(), 0u);
  EXPECT_TRUE(Empty.clean());
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
    EXPECT_EQ(Serial.Results[I].DynamicallyRaceFree,
              Parallel.Results[I].DynamicallyRaceFree);
  }
}

TEST(SweepLint, DirtyPointsRenderDeterministicallyToo) {
  // Asynchronous copies on CPU+GPU leave the readback in flight at the
  // serial merge, so every kernel lints with an error: the diagnostics
  // must come out in the same bytes at any job count.
  std::vector<SweepPoint> Points;
  SystemConfig Broken = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  Broken.AsyncCopies = true;
  for (KernelId Kernel : allKernels())
    Points.emplace_back(Broken, Kernel);
  SweepLintSummary A = lintSweep(Points, 1);
  SweepLintSummary B = lintSweep(Points, 4);
  EXPECT_EQ(A.pointsWithErrors(), Points.size());
  EXPECT_EQ(A.render(), B.render());
}

//===----------------------------------------------------------------------===//
// Machine-readable output
//===----------------------------------------------------------------------===//

TEST(LintJson, RoundTripsAndValidates) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  eraseStep(Program, firstStepOfKind(Program, ExecKind::OwnershipToCpu));

  LintJsonPoint Point;
  Point.System = Config.Name;
  Point.Kernels = {kernelName(KernelId::Reduction)};
  Point.Report = lintProgram(Program, Config);
  Point.DynamicallyRaceFree = validateRaceFree(Program);
  ASSERT_NE(Point.Report.errorCount(), 0u);

  std::string Doc = writeLintJson({Point}, ConsistencyModel::Weak);
  std::string Error;
  EXPECT_TRUE(validateLintJson(Doc, Error)) << Error;

  // Tampering with a summary count must be caught.
  size_t Pos = Doc.rfind("\"errors\":");
  ASSERT_NE(Pos, std::string::npos);
  Pos += std::strlen("\"errors\":");
  std::string Tampered = Doc;
  Tampered.replace(Pos, Doc.find_first_not_of("0123456789", Pos) - Pos,
                   std::to_string(Point.Report.errorCount() + 1));
  EXPECT_FALSE(validateLintJson(Tampered, Error));
  EXPECT_NE(Error.find("summary.errors"), std::string::npos) << Error;

  EXPECT_FALSE(validateLintJson("{\"schema\":\"hetsim-metrics-v1\"}", Error));
  EXPECT_NE(Error.find("unknown schema"), std::string::npos);
  // v1 carried race witnesses this schema no longer has.
  EXPECT_FALSE(validateLintJson("{\"schema\":\"hetsim-lint-v1\"}", Error));
  EXPECT_NE(Error.find("unknown schema 'hetsim-lint-v1'"), std::string::npos);
}
