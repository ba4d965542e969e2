//===- common/TextTable.cpp -----------------------------------------------===//

#include "common/TextTable.h"

#include "common/StringUtil.h"

#include <algorithm>

using namespace hetsim;

TextTable::TextTable(std::vector<std::string> Columns)
    : Headers(std::move(Columns)) {}

void TextTable::addRow(std::vector<std::string> Cells) {
  Cells.resize(Headers.size());
  Rows.push_back(std::move(Cells));
}

std::string TextTable::render() const {
  std::vector<size_t> Widths(Headers.size(), 0);
  for (size_t I = 0; I != Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I != Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  auto RenderRow = [&](const std::vector<std::string> &Cells) {
    std::string Line;
    for (size_t I = 0; I != Cells.size(); ++I) {
      if (I != 0)
        Line += "  ";
      Line += Cells[I];
      Line.append(Widths[I] - Cells[I].size(), ' ');
    }
    // Trim trailing padding.
    size_t End = Line.find_last_not_of(' ');
    Line.resize(End == std::string::npos ? 0 : End + 1);
    Line += '\n';
    return Line;
  };

  std::string Out = RenderRow(Headers);
  size_t Total = 0;
  for (size_t W : Widths)
    Total += W + 2;
  Out.append(Total > 2 ? Total - 2 : 0, '-');
  Out += '\n';
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}

std::string TextTable::renderCsv() const {
  // RFC 4180: a cell holding a comma or a quote ("480,768") is quoted,
  // with its quotes doubled.
  auto RenderRow = [](const std::vector<std::string> &Cells) {
    std::string Line;
    for (size_t I = 0; I != Cells.size(); ++I) {
      if (I != 0)
        Line += ',';
      const std::string &Cell = Cells[I];
      if (Cell.find_first_of(",\"") == std::string::npos) {
        Line += Cell;
        continue;
      }
      Line += '"';
      for (char C : Cell) {
        if (C == '"')
          Line += '"';
        Line += C;
      }
      Line += '"';
    }
    Line += '\n';
    return Line;
  };
  std::string Out = RenderRow(Headers);
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}
