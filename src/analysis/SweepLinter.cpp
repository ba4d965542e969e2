//===- analysis/SweepLinter.cpp -------------------------------------------===//

#include "analysis/SweepLinter.h"

#include "common/ThreadPool.h"
#include "core/ConsistencyValidation.h"

#include <algorithm>
#include <sstream>

using namespace hetsim;

unsigned SweepLintSummary::pointsWithErrors() const {
  unsigned Count = 0;
  for (const SweepLintResult &R : Results)
    if (R.Report.errorCount() != 0)
      ++Count;
  return Count;
}

unsigned SweepLintSummary::pointsWithWarnings() const {
  unsigned Count = 0;
  for (const SweepLintResult &R : Results)
    if (R.Report.warningCount() != 0)
      ++Count;
  return Count;
}

unsigned SweepLintSummary::disagreements() const {
  unsigned Count = 0;
  for (const SweepLintResult &R : Results)
    if (R.disagreement())
      ++Count;
  return Count;
}

std::string SweepLintSummary::summary() const {
  std::ostringstream Os;
  Os << points() << " points linted: " << pointsWithErrors()
     << " with errors, " << pointsWithWarnings() << " with warnings, "
     << disagreements() << " static/dynamic disagreements";
  return Os.str();
}

std::string SweepLintSummary::render() const {
  std::string Out;
  for (const SweepLintResult &R : Results)
    Out += R.Rendered;
  Out += summary();
  Out += "\n";
  return Out;
}

std::vector<SweepPoint> hetsim::shippedDesignSpace() {
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : allCaseStudies())
    for (KernelId Kernel : allKernels())
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);
  const AddressSpaceKind Spaces[] = {
      AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
      AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm};
  for (AddressSpaceKind Space : Spaces)
    for (KernelId Kernel : allKernels())
      Points.emplace_back(SystemConfig::forAddressSpaceStudy(Space),
                          Kernel);
  return Points;
}

SweepLintSummary hetsim::lintSweep(const std::vector<SweepPoint> &Points,
                                   unsigned Jobs,
                                   ConsistencyModel Model) {
  SweepLintSummary Summary;
  Summary.Results.resize(Points.size());
  ThreadPool Pool(Jobs);
  Pool.parallelFor(Points.size(), [&](size_t I) {
    const SystemConfig &Config = Points[I].Config;
    LoweredProgram Program = lowerKernel(Points[I].Kernel, Config);
    SweepLintResult &R = Summary.Results[I];
    R.System = Config.Name;
    R.Kernel = Points[I].Kernel;
    R.Report = lintProgram(Program, Config);
    // Fix the diagnostic order so the rendering below never depends on
    // rule-scan order.
    std::stable_sort(R.Report.Diags.begin(), R.Report.Diags.end(),
                     [](const LintDiagnostic &A, const LintDiagnostic &B) {
                       if (A.StepIndex != B.StepIndex)
                         return A.StepIndex < B.StepIndex;
                       if (A.Kind != B.Kind)
                         return A.Kind < B.Kind;
                       return A.Object < B.Object;
                     });
    R.DynamicallyRaceFree = validateRaceFree(Program, Model);
    // Render while the program (step names) is still alive; clean points
    // contribute nothing.
    if (!R.Report.clean() || R.disagreement()) {
      std::ostringstream Os;
      Os << R.System << " / " << kernelName(R.Kernel) << ":\n";
      Os << renderReport(R.Report, Program);
      if (R.disagreement())
        Os << "  disagreement: static-clean but dynamically racy under "
           << consistencyModelName(Model) << " consistency\n";
      R.Rendered = Os.str();
    }
  });
  return Summary;
}
