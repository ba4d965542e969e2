//===- analysis/ProgramLinter.h - Kernel-IR memory-model linter -*- C++ -*-===//
///
/// \file
/// The static linter over lowered programs. Where the dynamic
/// ConsistencyChecker validates one executed event history, the linter
/// proves the *lowering* legal for a design point before any cycle
/// simulation runs: it rebuilds the kernel's abstract phase structure
/// (the ground truth of what each round consumes and produces), walks
/// the ExecSteps with a per-address-space object state machine derived
/// from Table I's legality rules, and consults the static happens-before
/// graph (HbGraph) for the asynchronous-copy hazards. Every rule fires
/// with a precise step index and a fix-it hint phrased as the step the
/// lowering should have emitted.
///
/// The three front ends share this one entry point: the hetsim_lint CLI,
/// the HeteroSimulator pre-run hook (always on for kernel-built
/// programs), and the sweep-wide differential mode
/// (analysis/SweepLinter.h).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_ANALYSIS_PROGRAMLINTER_H
#define HETSIM_ANALYSIS_PROGRAMLINTER_H

#include "analysis/HbGraph.h"
#include "analysis/LintDiagnostic.h"
#include "core/Lowering.h"
#include "core/SystemConfig.h"

namespace hetsim {

/// Lints \p Program as lowered for \p Config. The program's Kernel field
/// selects the abstract phase structure the data-flow rules replay; a
/// program whose compute steps do not match that structure gets one
/// StructureMismatch diagnostic and only the structure-free rules.
LintReport lintProgram(const LoweredProgram &Program,
                       const SystemConfig &Config);

/// Renders every diagnostic of \p Report (one per line, with the step
/// kind names resolved against \p Program).
std::string renderReport(const LintReport &Report,
                         const LoweredProgram &Program);

} // namespace hetsim

#endif // HETSIM_ANALYSIS_PROGRAMLINTER_H
