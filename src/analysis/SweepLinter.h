//===- analysis/SweepLinter.h - Design-space-wide linting -------*- C++ -*-===//
///
/// \file
/// Lints every (kernel x memory-model) point of a design-space sweep and
/// cross-checks each static verdict against the dynamic
/// ConsistencyChecker as a differential oracle: a point the linter
/// passes must replay race-free (static-clean => dynamically race-free).
/// A disagreement means one of the two analyses has a soundness bug —
/// the sweep mode exists to catch exactly that while the simulator is
/// being refactored.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_ANALYSIS_SWEEPLINTER_H
#define HETSIM_ANALYSIS_SWEEPLINTER_H

#include "analysis/ProgramLinter.h"
#include "core/SweepRunner.h"
#include "memory/ConsistencyChecker.h"

namespace hetsim {

/// The verdicts for one swept point.
struct SweepLintResult {
  std::string System;
  KernelId Kernel = KernelId::Reduction;
  LintReport Report;
  /// The dynamic oracle's verdict for the same lowered program.
  bool DynamicallyRaceFree = true;
  /// Pre-rendered diagnostics, produced in the worker while the lowered
  /// program is alive (empty when the point is clean).
  /// Diagnostics are ordered by (step, kind, object), so the rendering
  /// is byte-stable whatever the worker count.
  std::string Rendered;

  /// True when the differential oracle disagrees: the linter found no
  /// error but the dynamic replay races.
  bool disagreement() const {
    return Report.errorCount() == 0 && !DynamicallyRaceFree;
  }
};

/// Aggregated verdicts over one sweep.
struct SweepLintSummary {
  std::vector<SweepLintResult> Results;

  unsigned points() const { return unsigned(Results.size()); }
  unsigned pointsWithErrors() const;
  unsigned pointsWithWarnings() const;
  unsigned disagreements() const;
  bool clean() const {
    return pointsWithErrors() == 0 && disagreements() == 0;
  }

  /// One human-readable summary line (no trailing newline).
  std::string summary() const;
  /// Every point's Rendered block concatenated, then the summary line:
  /// the whole report, byte-identical across job counts.
  std::string render() const;
};

/// The shipped design space: the five Section V-A case studies plus the
/// four Figure 7 address-space studies, each across all six kernels.
std::vector<SweepPoint> shippedDesignSpace();

/// Lints every point of \p Points (fanning out over a ThreadPool; \p Jobs
/// follows the ThreadPool convention, 0 = HETSIM_JOBS/hardware) and runs
/// the dynamic oracle under \p Model. Results keep submission order.
SweepLintSummary lintSweep(const std::vector<SweepPoint> &Points,
                           unsigned Jobs = 0,
                           ConsistencyModel Model = ConsistencyModel::Weak);

} // namespace hetsim

#endif // HETSIM_ANALYSIS_SWEEPLINTER_H
