//===- check/Fidelity.h - Paper-expected value checks -----------*- C++ -*-===//
///
/// \file
/// Paper-fidelity checks: declarative expectations transcribed from the
/// source paper (Table III benchmark counts, Figure 5-7 trends) that the
/// regenerated artifacts must keep satisfying. Unlike golden diffs these
/// carry *loose* bands — they pin the reproduction to the paper, not to
/// the last blessed run — so a deliberate timing-model change can move a
/// golden without breaking fidelity, while a change that inverts a
/// paper-reported ordering fails loudly.
///
/// `refs/paper/fidelity.cfg` grammar, fields split on " :: ":
///
///   value <doc> :: <row-prefix> :: <field> <op> <number> [abs=X] [rel=Y]
///   trend <doc> :: <field> :: <rowA> <op> <rowB> [<op> <rowC> ...]
///
/// where <doc> is a CSV artifact (check/ResultDoc.h) and <op> is one of
/// == <= >= < >. A row selector matches the first row whose label equals
/// it or starts with it followed by '/'. For `value ==` the abs/rel band
/// applies; inequalities are strict as written.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CHECK_FIDELITY_H
#define HETSIM_CHECK_FIDELITY_H

#include "check/Compare.h"

#include <string>
#include <vector>

namespace hetsim {

enum class FidelityOp : uint8_t { Eq, Le, Ge, Lt, Gt };

const char *fidelityOpName(FidelityOp Op);

/// One parsed expectation line.
struct FidelityCheck {
  bool IsTrend = false;
  std::string Doc;
  std::string Field;                  ///< Field under test.
  // Value checks:
  std::string RowSelector;
  FidelityOp Op = FidelityOp::Eq;
  double Expected = 0;
  Tolerance Band;                     ///< Applies to == only.
  // Trend checks:
  std::vector<std::string> TrendRows; ///< N row selectors...
  std::vector<FidelityOp> TrendOps;   ///< ...joined by N-1 operators.
  unsigned LineNo = 0;
  std::string Source;                 ///< Original cfg line, for reports.
};

/// All expectations of one fidelity run.
struct FidelitySet {
  std::vector<FidelityCheck> Checks;

  /// Parses cfg text; false with \p Error (naming the line) on a
  /// malformed line or one whose document is not a .csv artifact.
  bool parse(const std::string &Text, std::string &Error);
  static bool loadFile(const std::string &Path, FidelitySet &Out,
                       std::string &Error);
};

/// Evaluates every check against the CSV artifacts in \p OutDir, each
/// parsed once. An artifact that cannot be read (MissingDoc) or parsed
/// (ParseError) is reported once and its checks are skipped; violations
/// carry the offending document, row, field, and delta, in cfg order.
DiffReport evaluateFidelity(const FidelitySet &Set, const std::string &OutDir);

} // namespace hetsim

#endif // HETSIM_CHECK_FIDELITY_H
