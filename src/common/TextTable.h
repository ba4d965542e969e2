//===- common/TextTable.h - Aligned text-table rendering --------*- C++ -*-===//
///
/// \file
/// A column-aligned plain-text table used by the experiment report printers
/// (each bench binary prints the rows of one paper table or figure).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_TEXTTABLE_H
#define HETSIM_COMMON_TEXTTABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace hetsim {

/// Builds and renders a table with a header row and aligned columns.
class TextTable {
public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> Headers);

  /// Appends a row; the row is padded or truncated to the column count.
  void addRow(std::vector<std::string> Cells);

  /// Number of data rows.
  size_t rowCount() const { return Rows.size(); }

  /// Renders the table with a separator line under the header.
  std::string render() const;

  /// Renders as RFC 4180 comma-separated values (for machine
  /// consumption): a cell holding ',' or '"' is quoted.
  std::string renderCsv() const;

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace hetsim

#endif // HETSIM_COMMON_TEXTTABLE_H
