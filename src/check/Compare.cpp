//===- check/Compare.cpp --------------------------------------------------===//

#include "check/Compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

using namespace hetsim;

bool Tolerance::accepts(double Reference, double Actual) const {
  double Allowed = std::max(Abs, Rel * std::fabs(Reference));
  return std::fabs(Actual - Reference) <= Allowed;
}

const char *hetsim::diffKindName(DiffKind Kind) {
  switch (Kind) {
  case DiffKind::MissingDoc:
    return "missing-doc";
  case DiffKind::ParseError:
    return "parse-error";
  case DiffKind::ByteMismatch:
    return "byte-mismatch";
  case DiffKind::MissingRow:
    return "missing-row";
  case DiffKind::MissingField:
    return "missing-field";
  case DiffKind::FidelityValue:
    return "fidelity-value";
  case DiffKind::FidelityTrend:
    return "fidelity-trend";
  }
  return "unknown";
}

std::string DiffEntry::describe() const {
  std::string Where = Doc;
  if (!Row.empty())
    Where += " : " + Row;
  if (!Field.empty())
    Where += " : " + Field;
  char Buffer[512];
  if (Kind == DiffKind::FidelityValue) {
    std::snprintf(Buffer, sizeof(Buffer),
                  "%-14s %s  ref=%.6g act=%.6g |d|=%.4g rel=%.2f%% "
                  "(allowed abs=%g rel=%g)",
                  diffKindName(Kind), Where.c_str(), Reference, Actual,
                  AbsDelta, 100.0 * RelDelta, Allowed.Abs, Allowed.Rel);
    return Buffer;
  }
  std::snprintf(Buffer, sizeof(Buffer), "%-14s ", diffKindName(Kind));
  return Buffer + Where + "  " + Detail;
}

std::string DiffReport::render(const std::string &Title,
                               const char *Items) const {
  char Buffer[256];
  std::snprintf(Buffer, sizeof(Buffer),
                "== %s: %llu doc%s, %llu %s compared ==\n", Title.c_str(),
                static_cast<unsigned long long>(DocsCompared),
                DocsCompared == 1 ? "" : "s",
                static_cast<unsigned long long>(ItemsCompared), Items);
  std::string Out = Buffer;
  if (Entries.empty()) {
    Out += "ok\n";
    return Out;
  }
  std::snprintf(Buffer, sizeof(Buffer), "FAIL: %zu violation%s\n",
                Entries.size(), Entries.size() == 1 ? "" : "s");
  Out += Buffer;
  for (size_t I = 0; I != Entries.size(); ++I) {
    std::snprintf(Buffer, sizeof(Buffer), "%3zu. ", I + 1);
    Out += Buffer;
    Out += Entries[I].describe();
    Out += '\n';
  }
  return Out;
}

namespace {

/// Splits \p Text into lines that keep their '\n' (a last line without
/// one keeps none), so they concatenate back to exactly \p Text.
std::vector<std::string_view> splitKeepingNewlines(std::string_view Text) {
  std::vector<std::string_view> Lines;
  while (!Text.empty()) {
    size_t End = std::min(Text.find('\n'), Text.size() - 1) + 1;
    Lines.push_back(Text.substr(0, End));
    Text.remove_prefix(End);
  }
  return Lines;
}

std::string showLine(std::string_view Line) {
  if (Line.empty())
    return "<absent>";
  if (Line.back() == '\n')
    return "'" + std::string(Line.substr(0, Line.size() - 1)) + "'";
  return "'" + std::string(Line) + "' (no newline at end)";
}

} // namespace

bool hetsim::compareBytes(const std::string &Doc, const std::string &Reference,
                          const std::string &Actual, DiffEntry &Entry) {
  if (Reference == Actual)
    return true;
  std::vector<std::string_view> Ref = splitKeepingNewlines(Reference);
  std::vector<std::string_view> Act = splitKeepingNewlines(Actual);
  size_t Lines = std::max(Ref.size(), Act.size());
  size_t First = 0, Differing = 0;
  for (size_t I = 0; I != Lines; ++I) {
    std::string_view R = I < Ref.size() ? Ref[I] : std::string_view();
    std::string_view A = I < Act.size() ? Act[I] : std::string_view();
    if (R == A)
      continue;
    if (Differing++ == 0)
      First = I;
  }
  Entry = DiffEntry();
  Entry.Kind = DiffKind::ByteMismatch;
  Entry.Doc = Doc;
  Entry.Row = "line " + std::to_string(First + 1);
  Entry.Detail =
      std::to_string(Differing) + " of " + std::to_string(Lines) +
      " lines differ; ref " +
      showLine(First < Ref.size() ? Ref[First] : std::string_view()) +
      " vs act " +
      showLine(First < Act.size() ? Act[First] : std::string_view());
  return false;
}
