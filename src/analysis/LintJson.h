//===- analysis/LintJson.h - Machine-readable lint output -------*- C++ -*-===//
///
/// \file
/// The "hetsim-lint-v2" diagnostics schema, registered alongside the
/// metrics schemas ("hetsim-metrics-v1"/"hetsim-sweep-metrics-v1") and
/// accepted by `hetsim_stats validate|show|audit`. One document carries
/// the verdicts of one hetsim_lint invocation — any number of points,
/// each with its linter diagnostics and dynamic-oracle verdict:
///
///   { "schema": "hetsim-lint-v2", "model": "weak consistency",
///     "points": [ { "system": "LRB", "kernels": ["reduction"],
///                   "errors": 0, "warnings": 0,
///                   "dynamically_race_free": true,
///                   "disagreement": false,
///                   "diagnostics": [ { "kind": "...", "severity": "...",
///                       "step": 3, "object": "a", "message": "...",
///                       "fix": "..." } ] } ],
///     "summary": { "points": 1, "errors": 0, "warnings": 0,
///                  "disagreements": 0 } }
///
/// Any other schema, "hetsim-lint-v1" included, is rejected as unknown.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_ANALYSIS_LINTJSON_H
#define HETSIM_ANALYSIS_LINTJSON_H

#include "analysis/LintDiagnostic.h"
#include "memory/ConsistencyChecker.h"

#include <string>
#include <vector>

namespace hetsim {

/// The verdicts of one linted point, ready for serialization.
struct LintJsonPoint {
  std::string System;
  std::vector<std::string> Kernels;
  LintReport Report;
  bool DynamicallyRaceFree = true;
  /// Lint-clean but dynamically racy: a soundness bug in one analysis.
  bool Disagreement = false;
};

/// Serializes \p Points as one "hetsim-lint-v2" document.
std::string writeLintJson(const std::vector<LintJsonPoint> &Points,
                          ConsistencyModel Model);

/// Validates \p Text against the "hetsim-lint-v2" schema (shape and
/// summary-count consistency). Returns false and fills \p Error on the
/// first violation.
bool validateLintJson(const std::string &Text, std::string &Error);

} // namespace hetsim

#endif // HETSIM_ANALYSIS_LINTJSON_H
