//===- check/Fidelity.cpp -------------------------------------------------===//

#include "check/Fidelity.h"

#include "check/ResultDoc.h"
#include "obs/Json.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

using namespace hetsim;

const char *hetsim::fidelityOpName(FidelityOp Op) {
  switch (Op) {
  case FidelityOp::Eq:
    return "==";
  case FidelityOp::Le:
    return "<=";
  case FidelityOp::Ge:
    return ">=";
  case FidelityOp::Lt:
    return "<";
  case FidelityOp::Gt:
    return ">";
  }
  return "?";
}

namespace {

bool opFromToken(const std::string &Token, FidelityOp &Op) {
  if (Token == "==" || Token == "=")
    Op = FidelityOp::Eq;
  else if (Token == "<=")
    Op = FidelityOp::Le;
  else if (Token == ">=")
    Op = FidelityOp::Ge;
  else if (Token == "<")
    Op = FidelityOp::Lt;
  else if (Token == ">")
    Op = FidelityOp::Gt;
  else
    return false;
  return true;
}

bool parseNumberToken(const std::string &Text, double &Out) {
  const char *Begin = Text.c_str();
  char *End = nullptr;
  Out = std::strtod(Begin, &End);
  return End != Begin && *End == '\0';
}

std::string trimCopy(const std::string &Text) {
  size_t Begin = Text.find_first_not_of(" \t");
  if (Begin == std::string::npos)
    return "";
  size_t End = Text.find_last_not_of(" \t");
  return Text.substr(Begin, End - Begin + 1);
}

/// Splits on the literal separator " :: ".
std::vector<std::string> splitParts(const std::string &Line) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = Line.find(" :: ", Start);
    if (Pos == std::string::npos) {
      Parts.push_back(trimCopy(Line.substr(Start)));
      return Parts;
    }
    Parts.push_back(trimCopy(Line.substr(Start, Pos - Start)));
    Start = Pos + 4;
  }
}

/// Finds the earliest operator token of the form " <op> " in \p Text at
/// or after \p From; longest match wins at a given position.
bool findOpToken(const std::string &Text, size_t From, size_t &Pos,
                 size_t &Len, FidelityOp &Op) {
  static const struct {
    const char *Token;
    FidelityOp Op;
  } Table[] = {{" <= ", FidelityOp::Le}, {" >= ", FidelityOp::Ge},
               {" == ", FidelityOp::Eq}, {" < ", FidelityOp::Lt},
               {" > ", FidelityOp::Gt}};
  Pos = std::string::npos;
  for (const auto &Entry : Table) {
    size_t Found = Text.find(Entry.Token, From);
    if (Found == std::string::npos)
      continue;
    size_t TokenLen = std::char_traits<char>::length(Entry.Token);
    // Prefer the earliest position; at equal positions prefer the longer
    // token (" <= " starts where " < " would also match).
    if (Found < Pos || (Found == Pos && TokenLen > Len)) {
      Pos = Found;
      Len = TokenLen;
      Op = Entry.Op;
    }
  }
  return Pos != std::string::npos;
}

/// Parses the tail of a value check: "<field> <op> <number> [abs=] [rel=]".
bool parseValueTail(const std::string &Tail, FidelityCheck &Check,
                    std::string &Error) {
  std::istringstream Stream(Tail);
  std::vector<std::string> Words;
  std::string Word;
  while (Stream >> Word)
    Words.push_back(Word);

  // Band tokens sit at the end.
  size_t End = Words.size();
  auto IsBand = [](const std::string &Token) {
    return Token.rfind("abs=", 0) == 0 || Token.rfind("rel=", 0) == 0;
  };
  while (End > 0 && IsBand(Words[End - 1]))
    --End;
  for (size_t I = End; I != Words.size(); ++I) {
    double Value = 0;
    if (!parseNumberToken(Words[I].substr(4), Value) || Value < 0) {
      Error = "bad band token '" + Words[I] + "'";
      return false;
    }
    if (Words[I][0] == 'a')
      Check.Band.Abs = Value;
    else
      Check.Band.Rel = Value;
  }

  if (End < 3) {
    Error = "value check needs '<field> <op> <number>'";
    return false;
  }
  if (!parseNumberToken(Words[End - 1], Check.Expected)) {
    Error = "bad expected number '" + Words[End - 1] + "'";
    return false;
  }
  if (!opFromToken(Words[End - 2], Check.Op)) {
    Error = "bad operator '" + Words[End - 2] + "'";
    return false;
  }
  for (size_t I = 0; I + 2 != End; ++I) {
    if (I != 0)
      Check.Field += ' ';
    Check.Field += Words[I];
  }
  return true;
}

/// Parses the tail of a trend check: "<rowA> <op> <rowB> [<op> <rowC>...]".
bool parseTrendTail(const std::string &Tail, FidelityCheck &Check,
                    std::string &Error) {
  size_t From = 0;
  while (true) {
    size_t Pos = 0, Len = 0;
    FidelityOp Op = FidelityOp::Lt;
    if (!findOpToken(Tail, From, Pos, Len, Op)) {
      std::string Last = trimCopy(Tail.substr(From));
      if (Last.empty()) {
        Error = "trend ends with an operator";
        return false;
      }
      Check.TrendRows.push_back(Last);
      break;
    }
    std::string Row = trimCopy(Tail.substr(From, Pos - From));
    if (Row.empty()) {
      Error = "trend has an empty row selector";
      return false;
    }
    Check.TrendRows.push_back(Row);
    Check.TrendOps.push_back(Op);
    From = Pos + Len;
  }
  if (Check.TrendRows.size() < 2) {
    Error = "trend needs at least two rows joined by an operator";
    return false;
  }
  return true;
}

/// First row whose label equals \p Selector or starts with it + '/'.
const ResultRow *selectRow(const ResultDoc &Doc, const std::string &Selector) {
  for (const ResultRow &Row : Doc.Rows)
    if (Row.Label == Selector ||
        (Row.Label.size() > Selector.size() &&
         Row.Label.compare(0, Selector.size(), Selector) == 0 &&
         Row.Label[Selector.size()] == '/'))
      return &Row;
  return nullptr;
}

bool opHolds(FidelityOp Op, double Lhs, double Rhs, const Tolerance &Band) {
  switch (Op) {
  case FidelityOp::Eq:
    return Band.accepts(Rhs, Lhs);
  case FidelityOp::Le:
    return Lhs <= Rhs;
  case FidelityOp::Ge:
    return Lhs >= Rhs;
  case FidelityOp::Lt:
    return Lhs < Rhs;
  case FidelityOp::Gt:
    return Lhs > Rhs;
  }
  return false;
}

/// Resolves one selector's field value; records a violation otherwise.
bool resolveValue(const FidelityCheck &Check, const ResultDoc &Doc,
                  const std::string &Selector, double &Out,
                  DiffReport &Report) {
  const ResultRow *Row = selectRow(Doc, Selector);
  DiffEntry Entry;
  Entry.Doc = Check.Doc;
  Entry.Row = Selector;
  Entry.Field = Check.Field;
  Entry.Detail = Check.Source;
  if (!Row) {
    Entry.Kind = DiffKind::MissingRow;
    Entry.Detail = "no row matches selector (" + Check.Source + ")";
    Report.Entries.push_back(std::move(Entry));
    return false;
  }
  const ResultValue *Value = Row->find(Check.Field);
  if (!Value || !Value->IsNumber) {
    Entry.Kind = DiffKind::MissingField;
    Entry.Row = Row->Label;
    Entry.Detail = std::string(Value ? "field is not numeric"
                                     : "field is missing") +
                   " (" + Check.Source + ")";
    Report.Entries.push_back(std::move(Entry));
    return false;
  }
  Out = Value->Number;
  return true;
}

} // namespace

bool FidelitySet::parse(const std::string &Text, std::string &Error) {
  Checks.clear();
  std::istringstream Stream(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(Stream, Line)) {
    ++LineNo;
    std::string Trimmed = trimCopy(Line);
    // Whole-line comments only: column names contain '#' ("#inst CPU"),
    // so a mid-line '#' is data.
    if (Trimmed.empty() || Trimmed[0] == '#')
      continue;

    auto Fail = [&](const std::string &Message) {
      Error = "fidelity line " + std::to_string(LineNo) + ": " + Message;
      return false;
    };

    std::vector<std::string> Parts = splitParts(Trimmed);
    if (Parts.size() != 3)
      return Fail("expected 3 fields separated by ' :: '");

    FidelityCheck Check;
    Check.LineNo = LineNo;
    Check.Source = Trimmed;

    std::istringstream Head(Parts[0]);
    std::string Kind;
    Head >> Kind >> Check.Doc;
    std::string Leftover;
    if (Check.Doc.empty() || (Head >> Leftover))
      return Fail("first field must be '<kind> <doc>'");
    if (Check.Doc.size() <= 4 ||
        Check.Doc.compare(Check.Doc.size() - 4, 4, ".csv") != 0)
      return Fail("document '" + Check.Doc + "' is not a .csv artifact");

    if (Kind == "value") {
      Check.RowSelector = Parts[1];
      if (Check.RowSelector.empty())
        return Fail("empty row selector");
      std::string Message;
      if (!parseValueTail(Parts[2], Check, Message))
        return Fail(Message);
    } else if (Kind == "trend") {
      Check.IsTrend = true;
      Check.Field = Parts[1];
      if (Check.Field.empty())
        return Fail("empty field name");
      std::string Message;
      if (!parseTrendTail(Parts[2], Check, Message))
        return Fail(Message);
    } else {
      return Fail("unknown check kind '" + Kind + "'");
    }
    Checks.push_back(std::move(Check));
  }
  return true;
}

bool FidelitySet::loadFile(const std::string &Path, FidelitySet &Out,
                           std::string &Error) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    Error = "cannot read " + Path;
    return false;
  }
  return Out.parse(Text, Error);
}

DiffReport hetsim::evaluateFidelity(const FidelitySet &Set,
                                    const std::string &OutDir) {
  DiffReport Report;
  // Parse each artifact once; an empty slot marks one already reported.
  std::map<std::string, std::optional<ResultDoc>> Docs;
  for (const FidelityCheck &Check : Set.Checks) {
    if (Docs.count(Check.Doc))
      continue;
    std::optional<ResultDoc> &Slot = Docs[Check.Doc];
    DiffEntry Entry;
    Entry.Doc = Check.Doc;
    std::string Path = OutDir + "/" + Check.Doc, Text;
    ResultDoc Doc;
    if (!readTextFile(Path, Text)) {
      Entry.Kind = DiffKind::MissingDoc;
      Entry.Detail = "cannot read " + Path;
    } else if (!ResultDoc::fromCsv(Text, Doc, Entry.Detail)) {
      Entry.Kind = DiffKind::ParseError;
    } else {
      Slot = std::move(Doc);
      ++Report.DocsCompared;
      continue;
    }
    Report.Entries.push_back(std::move(Entry));
  }

  for (const FidelityCheck &Check : Set.Checks) {
    const std::optional<ResultDoc> &Doc = Docs[Check.Doc];
    if (!Doc)
      continue;

    if (!Check.IsTrend) {
      double Actual = 0;
      if (!resolveValue(Check, *Doc, Check.RowSelector, Actual, Report))
        continue;
      ++Report.ItemsCompared;
      if (opHolds(Check.Op, Actual, Check.Expected, Check.Band))
        continue;
      DiffEntry Entry;
      Entry.Kind = DiffKind::FidelityValue;
      Entry.Doc = Check.Doc;
      Entry.Row = Check.RowSelector;
      Entry.Field = Check.Field;
      Entry.Reference = Check.Expected;
      Entry.Actual = Actual;
      Entry.AbsDelta = std::fabs(Actual - Check.Expected);
      Entry.RelDelta = Check.Expected != 0
                           ? Entry.AbsDelta / std::fabs(Check.Expected)
                           : Entry.AbsDelta;
      Entry.Allowed = Check.Band;
      Entry.Detail = Check.Source;
      Report.Entries.push_back(std::move(Entry));
      continue;
    }

    // Trend: every adjacent pair must satisfy its operator.
    std::vector<double> Values(Check.TrendRows.size(), 0);
    bool Resolved = true;
    for (size_t I = 0; I != Check.TrendRows.size(); ++I)
      if (!resolveValue(Check, *Doc, Check.TrendRows[I], Values[I], Report))
        Resolved = false;
    if (!Resolved)
      continue;
    for (size_t I = 0; I + 1 != Values.size(); ++I) {
      ++Report.ItemsCompared;
      if (opHolds(Check.TrendOps[I], Values[I], Values[I + 1], Tolerance()))
        continue;
      DiffEntry Entry;
      Entry.Kind = DiffKind::FidelityTrend;
      Entry.Doc = Check.Doc;
      Entry.Row = Check.TrendRows[I] + " " +
                  fidelityOpName(Check.TrendOps[I]) + " " +
                  Check.TrendRows[I + 1];
      Entry.Field = Check.Field;
      Entry.Reference = Values[I + 1];
      Entry.Actual = Values[I];
      Entry.Detail = "ordering violated: " + std::to_string(Values[I]) +
                     " vs " + std::to_string(Values[I + 1]) + " (" +
                     Check.Source + ")";
      Report.Entries.push_back(std::move(Entry));
    }
  }
  return Report;
}
