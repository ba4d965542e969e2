//===- check/ResultDoc.cpp ------------------------------------------------===//

#include "check/ResultDoc.h"

#include "common/StringUtil.h"

#include <cstdlib>

using namespace hetsim;

namespace {

/// Builds a row from named cells; the label joins the non-empty text
/// cells.
ResultRow makeRow(const std::vector<std::string> &Names,
                  const std::vector<std::string> &Cells) {
  ResultRow Row;
  std::string Label;
  for (size_t I = 0; I != Cells.size(); ++I) {
    ResultValue Value = parseResultValue(Cells[I]);
    if (!Value.IsNumber && !Value.Text.empty()) {
      if (!Label.empty())
        Label += '/';
      Label += Value.Text;
    }
    Row.Fields.emplace_back(Names[I], std::move(Value));
  }
  if (Label.empty())
    Label = Row.Fields.empty() ? "(empty)" : Row.Fields.front().second.Text;
  Row.Label = std::move(Label);
  return Row;
}

/// Splits one CSV line into \p Cells (RFC 4180 quoting, no embedded
/// newlines). False on an unterminated quote or one that does not span a
/// whole cell.
bool splitCsvLine(const std::string &Line, std::vector<std::string> &Cells) {
  Cells.assign(1, std::string());
  bool Quoted = false;
  for (size_t I = 0; I != Line.size(); ++I) {
    char C = Line[I];
    bool NextIsQuote = I + 1 < Line.size() && Line[I + 1] == '"';
    if (Quoted && C == '"' && NextIsQuote) {
      Cells.back() += '"';
      ++I;
    } else if (Quoted && C == '"') {
      Quoted = false;
      if (I + 1 < Line.size() && Line[I + 1] != ',')
        return false;
    } else if (Quoted) {
      Cells.back() += C;
    } else if (C == ',') {
      Cells.emplace_back();
    } else if (C == '"') {
      if (!Cells.back().empty())
        return false;
      Quoted = true;
    } else {
      Cells.back() += C;
    }
  }
  return !Quoted;
}

} // namespace

ResultValue hetsim::parseResultValue(const std::string &Cell) {
  ResultValue Value;
  Value.Text = trim(Cell);
  if (Value.Text.empty())
    return Value;

  std::string Numeric = Value.Text;
  if (Numeric.back() == '%')
    Numeric.pop_back();
  // Strip thousands separators; reject stray leading/trailing commas.
  if (Numeric.empty() || Numeric.front() == ',' || Numeric.back() == ',')
    return Value;
  std::string Stripped;
  Stripped.reserve(Numeric.size());
  for (char C : Numeric)
    if (C != ',')
      Stripped += C;
  if (Stripped.empty())
    return Value;

  const char *Begin = Stripped.c_str();
  char *End = nullptr;
  double Number = std::strtod(Begin, &End);
  if (End == Begin || *End != '\0')
    return Value;
  Value.IsNumber = true;
  Value.Number = Number;
  return Value;
}

const ResultValue *ResultRow::find(const std::string &Field) const {
  for (const auto &Entry : Fields)
    if (Entry.first == Field)
      return &Entry.second;
  return nullptr;
}

bool ResultDoc::fromCsv(const std::string &Text, ResultDoc &Out,
                        std::string &Error) {
  Out = ResultDoc();
  std::vector<std::string> Lines = splitString(Text, '\n');
  std::vector<std::string> Headers, Cells;
  for (size_t I = 0; I != Lines.size(); ++I) {
    if (trim(Lines[I]).empty())
      continue;
    std::string Where = "line " + std::to_string(I + 1);
    if (!splitCsvLine(Lines[I], Cells)) {
      Error = Where + ": unterminated or misplaced '\"'";
      return false;
    }
    if (Headers.empty()) {
      Headers = std::move(Cells);
      continue;
    }
    if (Cells.size() != Headers.size()) {
      Error = Where + " has " + std::to_string(Cells.size()) +
              " fields, its header " + std::to_string(Headers.size());
      return false;
    }
    Out.Rows.push_back(makeRow(Headers, Cells));
  }
  return true;
}
