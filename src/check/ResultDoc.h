//===- check/ResultDoc.h - Structured result documents ----------*- C++ -*-===//
///
/// \file
/// The input side of the regression-check subsystem: every artifact the
/// experiment harness emits (aligned-text tables in `out/*.txt`, their
/// CSV exports, and the `hetsim-metrics-v1` / `hetsim-sweep-metrics-v1`
/// JSON documents) parses into one common shape — rows of named fields
/// whose cells are numeric wherever the text permits — so the comparison
/// engine can apply per-metric tolerances instead of byte-diffing.
///
/// Lines an artifact carries outside its tables (titles, ASCII charts,
/// footnotes) are kept verbatim as "prose" and must match exactly: they
/// are rendered from the same numbers at coarse granularity, so any
/// change there is a real drift.
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
/// text is always preserved for exact comparison and reporting.
struct ResultValue {
  bool IsNumber = false;
  double Number = 0;
  std::string Text;
};

/// Parses \p Cell into a ResultValue (see the numeric rules above).
ResultValue parseResultValue(const std::string &Cell);

/// One table row: fields in column order, plus a label built by joining
/// the row's text-valued cells with '/' ("reduction/CPU+GPU"). Labels
/// identify rows across documents, so comparison is insensitive to row
/// reordering; duplicate labels pair up by occurrence index.
struct ResultRow {
  std::string Label;
  std::vector<std::pair<std::string, ResultValue>> Fields;

  /// Field lookup by column name; nullptr when absent.
  const ResultValue *find(const std::string &Field) const;
};

/// A structured view of one artifact.
class ResultDoc {
public:
  std::string Name;                ///< Artifact name ("fig5.csv").
  std::vector<ResultRow> Rows;     ///< All table rows, in file order.
  std::vector<std::string> Prose;  ///< Non-table lines, in file order.

  /// Parses a CSV export. Rows whose cell count exceeds the header's are
  /// repaired by re-joining thousands-separator splits ("480,768" was
  /// written unquoted); rows that still do not line up degrade to a
  /// single exact-match prose line.
  static ResultDoc fromCsv(const std::string &Name, const std::string &Text);

  /// Parses an aligned-text artifact: every header line followed by a
  /// dashed separator starts a table whose columns split on runs of two
  /// or more spaces; the table ends at the first blank line. Everything
  /// else is prose.
  static ResultDoc fromArtifactText(const std::string &Name,
                                    const std::string &Text);

  /// Parses a `hetsim-metrics-v1` or `hetsim-sweep-metrics-v1` document.
  /// Single-run documents yield one row labelled "run"; sweep documents
  /// yield one row per point labelled "<system>/<kernel>". Returns false
  /// and sets \p Error on schema or syntax violations.
  static bool fromMetricsJson(const std::string &Name, const std::string &Text,
                              ResultDoc &Out, std::string &Error);

  /// Reads \p Path and dispatches on \p Name's extension: .csv, .json
  /// (metrics schemas), anything else aligned text. Returns false and
  /// sets \p Error when the file is unreadable or malformed.
  static bool load(const std::string &Name, const std::string &Path,
                   ResultDoc &Out, std::string &Error);
};

} // namespace hetsim

#endif // HETSIM_CHECK_RESULTDOC_H
