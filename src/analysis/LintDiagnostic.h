//===- analysis/LintDiagnostic.h - Static lint diagnostics ------*- C++ -*-===//
///
/// \file
/// The diagnostic vocabulary of the kernel-IR memory-model linter. Each
/// diagnostic names a legality rule derived from Table I's design axes
/// (address space, consistency, ownership) that a lowered program
/// violates, anchored to the offending ExecStep and carrying a fix-it
/// hint phrased in terms of the step the lowering should have emitted.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_ANALYSIS_LINTDIAGNOSTIC_H
#define HETSIM_ANALYSIS_LINTDIAGNOSTIC_H

#include "trace/Kernel.h"

#include <cstddef>
#include <string>
#include <vector>

namespace hetsim {

/// The legality rules the linter enforces.
enum class LintKind : uint8_t {
  /// A compute step consumes an object whose copy on the executing PU is
  /// stale: no transfer refreshed it since the other PU's last write
  /// (disjoint spaces), or the ADSM runtime state says the accelerator
  /// copy is invalid.
  UseBeforeTransfer,
  /// The host observes (serial merge or program end) an object last
  /// written by the GPU with no device-to-host transfer — the readback
  /// would return stale data.
  StaleReadback,
  /// An asynchronous copy is still in flight when the program ends: no
  /// DmaWait (or synchronizing kernel launch) drains it.
  MissingDmaWait,
  /// Under an ownership discipline, a PU touches a shared object it does
  /// not own: a release/acquire pair is missing.
  MissingOwnership,
  /// An ownership step transitions nothing: every listed object is
  /// already owned by the target PU.
  DoubleOwnership,
  /// A transfer moves data that is already valid at the destination —
  /// a dead copy the lowering should have elided.
  RedundantTransfer,
  /// Explicit shared-locality discipline: a parallel round uses a shared
  /// object never staged by a preceding push.
  UnstagedSharedUse,
  /// Two conflicting cross-PU accesses with no ordering edge under the
  /// consistency model (e.g. a compute step overlapping an undrained
  /// asynchronous copy of the same object).
  CrossPuRace,
  /// A step is meaningless under the configured memory model (explicit
  /// transfer in a unified space, ownership without ownership support...).
  ModelMismatch,
  /// The step sequence does not match the kernel's abstract phase
  /// structure (compute steps added or removed); data-flow rules that
  /// need the phase skeleton were skipped.
  StructureMismatch,
};

/// Short kebab-case rule name ("use-before-transfer", ...).
const char *lintKindName(LintKind Kind);

/// Diagnostic severities. Errors are hazards (the run would be wrong on
/// real hardware); warnings are dead work (the run is correct but the
/// lowering wastes communication).
enum class LintSeverity : uint8_t { Warning, Error };

const char *lintSeverityName(LintSeverity Severity);

/// One diagnostic, anchored to a step of the lowered program.
struct LintDiagnostic {
  LintKind Kind = LintKind::UseBeforeTransfer;
  LintSeverity Severity = LintSeverity::Error;
  /// Index into LoweredProgram::Steps of the step the rule fired on.
  size_t StepIndex = 0;
  /// The data object involved (empty for program-wide diagnostics).
  std::string Object;
  /// Human-readable statement of the violation.
  std::string Message;
  /// What the lowering should have emitted, phrased as an edit.
  std::string FixHint;

  /// Renders "step 3 (parallel): error: use-before-transfer: ...".
  std::string render(const char *StepName) const;
};

/// Everything one lint of one (program, config) produced.
struct LintReport {
  KernelId Kernel = KernelId::Reduction;
  std::string System;
  std::vector<LintDiagnostic> Diags;

  bool clean() const { return Diags.empty(); }
  unsigned errorCount() const;
  unsigned warningCount() const;
};

} // namespace hetsim

#endif // HETSIM_ANALYSIS_LINTDIAGNOSTIC_H
