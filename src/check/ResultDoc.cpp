//===- check/ResultDoc.cpp ------------------------------------------------===//

#include "check/ResultDoc.h"

#include "common/StringUtil.h"
#include "obs/Json.h"
#include "obs/Metrics.h"

#include <cctype>
#include <cstdlib>

using namespace hetsim;

namespace {

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos) {
      if (Start < Text.size())
        Lines.push_back(Text.substr(Start));
      break;
    }
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

std::string trimCopy(const std::string &Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

/// Splits a row of an aligned table on runs of two or more spaces.
std::vector<std::string> splitColumns(const std::string &Line) {
  std::vector<std::string> Cells;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    if (I >= Line.size())
      break;
    size_t Start = I;
    // A cell ends at a run of >=2 spaces (or end of line); single spaces
    // belong to the cell ("merge sort", "parallel->merge->sequential").
    while (I < Line.size()) {
      if (Line[I] == ' ' && I + 1 < Line.size() && Line[I + 1] == ' ')
        break;
      if (Line[I] == ' ' && I + 1 == Line.size())
        break;
      ++I;
    }
    Cells.push_back(Line.substr(Start, I - Start));
  }
  return Cells;
}

bool isSeparatorLine(const std::string &Line) {
  std::string Trimmed = trimCopy(Line);
  if (Trimmed.size() < 4)
    return false;
  for (char C : Trimmed)
    if (C != '-')
      return false;
  return true;
}

bool isAllDigits(const std::string &Text) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  return true;
}

/// Builds a row from named cells; the label joins the text cells.
ResultRow makeRow(const std::vector<std::string> &Names,
                  const std::vector<std::string> &Cells) {
  ResultRow Row;
  std::string Label;
  for (size_t I = 0; I != Cells.size(); ++I) {
    std::string Name = I < Names.size() ? Names[I]
                                        : "col" + std::to_string(I);
    ResultValue Value = parseResultValue(Cells[I]);
    if (!Value.IsNumber) {
      if (!Label.empty())
        Label += '/';
      Label += Value.Text;
    }
    Row.Fields.emplace_back(std::move(Name), std::move(Value));
  }
  if (Label.empty())
    Label = Row.Fields.empty() ? "(empty)" : Row.Fields.front().second.Text;
  Row.Label = std::move(Label);
  return Row;
}

/// Splits one CSV line (no quoting — the harness never emits quotes).
std::vector<std::string> splitCsvLine(const std::string &Line) {
  std::vector<std::string> Cells = splitString(Line, ',');
  for (std::string &Cell : Cells)
    Cell = trimCopy(Cell);
  return Cells;
}

/// Repairs a CSV row whose unquoted thousands separators were split into
/// extra cells: while the row is too wide, re-joins a digit cell with a
/// following exactly-3-digit cell ("480" + "768" -> "480,768").
void mergeThousandsSplits(std::vector<std::string> &Cells, size_t Want) {
  while (Cells.size() > Want) {
    bool Merged = false;
    for (size_t I = 0; I + 1 < Cells.size(); ++I) {
      if (isAllDigits(Cells[I]) && Cells[I + 1].size() == 3 &&
          isAllDigits(Cells[I + 1])) {
        Cells[I] += "," + Cells[I + 1];
        Cells.erase(Cells.begin() + static_cast<long>(I) + 1);
        Merged = true;
        break;
      }
    }
    if (!Merged)
      return;
  }
}

} // namespace

ResultValue hetsim::parseResultValue(const std::string &Cell) {
  ResultValue Value;
  Value.Text = trimCopy(Cell);
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

ResultDoc ResultDoc::fromCsv(const std::string &Name,
                             const std::string &Text) {
  ResultDoc Doc;
  Doc.Name = Name;
  std::vector<std::string> Lines = splitLines(Text);
  if (Lines.empty())
    return Doc;

  std::vector<std::string> Headers = splitCsvLine(Lines.front());
  for (size_t I = 1; I != Lines.size(); ++I) {
    if (trimCopy(Lines[I]).empty())
      continue;
    std::vector<std::string> Cells = splitCsvLine(Lines[I]);
    mergeThousandsSplits(Cells, Headers.size());
    if (Cells.size() == Headers.size())
      Doc.Rows.push_back(makeRow(Headers, Cells));
    else
      Doc.Prose.push_back(Lines[I]);
  }
  return Doc;
}

ResultDoc ResultDoc::fromArtifactText(const std::string &Name,
                                      const std::string &Text) {
  ResultDoc Doc;
  Doc.Name = Name;
  std::vector<std::string> Lines = splitLines(Text);

  size_t I = 0;
  while (I < Lines.size()) {
    // A table starts at a header line directly followed by a dashes line.
    if (I + 1 < Lines.size() && !trimCopy(Lines[I]).empty() &&
        isSeparatorLine(Lines[I + 1])) {
      std::vector<std::string> Headers = splitColumns(Lines[I]);
      I += 2;
      while (I < Lines.size() && !trimCopy(Lines[I]).empty()) {
        std::vector<std::string> Cells = splitColumns(Lines[I]);
        if (Cells.size() == Headers.size())
          Doc.Rows.push_back(makeRow(Headers, Cells));
        else
          Doc.Prose.push_back(Lines[I]);
        ++I;
      }
      continue;
    }
    Doc.Prose.push_back(Lines[I]);
    ++I;
  }
  return Doc;
}

bool ResultDoc::fromMetricsJson(const std::string &Name,
                                const std::string &Text, ResultDoc &Out,
                                std::string &Error) {
  if (!validateMetricsJson(Text, Error))
    return false;
  JsonValue Doc;
  if (!parseJson(Text, Doc, Error))
    return false;

  Out = ResultDoc();
  Out.Name = Name;

  auto AddPoint = [&Out](const std::string &Label, const JsonValue &Metrics) {
    ResultRow Row;
    Row.Label = Label;
    for (const auto &Member : Metrics.Members) {
      ResultValue Value;
      Value.IsNumber = Member.second.isNumber();
      Value.Number = Member.second.NumberValue;
      Value.Text = Member.second.isString() ? Member.second.StringValue : "";
      Row.Fields.emplace_back(Member.first, std::move(Value));
    }
    Out.Rows.push_back(std::move(Row));
  };

  if (const JsonValue *Metrics = Doc.find("metrics")) {
    AddPoint("run", *Metrics);
    return true;
  }
  const JsonValue *Sweep = Doc.find("points");
  for (size_t I = 0; I != Sweep->Elements.size(); ++I) {
    const JsonValue &Point = Sweep->Elements[I];
    std::string Label = "point" + std::to_string(I);
    const JsonValue *System = Point.find("system");
    const JsonValue *Kernel = Point.find("kernel");
    if (System && System->isString() && Kernel && Kernel->isString())
      Label = System->StringValue + "/" + Kernel->StringValue;
    AddPoint(Label, *Point.find("metrics"));
  }
  return true;
}

bool ResultDoc::load(const std::string &Name, const std::string &Path,
                     ResultDoc &Out, std::string &Error) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    Error = "cannot read " + Path;
    return false;
  }
  if (Name.size() > 5 && Name.rfind(".json") == Name.size() - 5)
    return fromMetricsJson(Name, Text, Out, Error);
  if (Name.size() > 4 && Name.rfind(".csv") == Name.size() - 4) {
    Out = fromCsv(Name, Text);
    return true;
  }
  Out = fromArtifactText(Name, Text);
  return true;
}
