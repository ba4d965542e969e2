//===- check/ResultDoc.h - Parsed CSV result documents ----------*- C++ -*-===//
///
/// \file
/// The input side of the paper-fidelity checks: a CSV export of one
/// results table (`out/*.csv`, RFC 4180) parses into rows of named
/// fields whose cells are numeric wherever the text permits, so a
/// `refs/paper/fidelity.cfg` rule can select a row and read a field.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CHECK_RESULTDOC_H
#define HETSIM_CHECK_RESULTDOC_H

#include <string>
#include <utility>
#include <vector>

namespace hetsim {

/// One parsed cell. Numeric parsing accepts thousands separators
/// ("8,585,229") and a trailing percent sign ("30.7%" becomes 30.7 —
/// stripped, not divided); anything else stays text. The original cell
/// text is always preserved for reporting.
struct ResultValue {
  bool IsNumber = false;
  double Number = 0;
  std::string Text;
};

/// Parses \p Cell into a ResultValue (see the numeric rules above).
ResultValue parseResultValue(const std::string &Cell);

/// One table row: fields in column order, plus a label built by joining
/// the row's non-empty text cells with '/' ("reduction/CPU+GPU"), which
/// fidelity row selectors match.
struct ResultRow {
  std::string Label;
  std::vector<std::pair<std::string, ResultValue>> Fields;

  /// Field lookup by column name; nullptr when absent.
  const ResultValue *find(const std::string &Field) const;
};

/// A structured view of one CSV artifact.
struct ResultDoc {
  std::vector<ResultRow> Rows; ///< Data rows, in file order.

  /// Parses CSV \p Text: the first line is the header, blank lines are
  /// skipped, and a quoted cell may hold ',' and doubled '"'. Returns
  /// false and sets \p Error (with a line number) on an unterminated or
  /// misplaced quote, or on a row whose field count differs from the
  /// header's.
  static bool fromCsv(const std::string &Text, ResultDoc &Out,
                      std::string &Error);
};

} // namespace hetsim

#endif // HETSIM_CHECK_RESULTDOC_H
