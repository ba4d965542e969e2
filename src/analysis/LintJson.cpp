//===- analysis/LintJson.cpp ----------------------------------------------===//

#include "analysis/LintJson.h"

#include "obs/Json.h"

using namespace hetsim;

namespace {

/// Fetches a required member of \p Kind from \p Obj; nullptr + \p Error
/// otherwise.
const JsonValue *require(const JsonValue &Obj, const char *Key,
                         JsonValue::Kind Kind, const std::string &Where,
                         std::string &Error) {
  const JsonValue *Member = Obj.find(Key);
  if (!Member || Member->Type != Kind) {
    Error = Where + ": missing or mistyped '" + Key + "'";
    return nullptr;
  }
  return Member;
}

} // namespace

std::string hetsim::writeLintJson(const std::vector<LintJsonPoint> &Points,
                                  ConsistencyModel Model) {
  JsonWriter W;
  W.beginObject();
  W.value("schema", "hetsim-lint-v2");
  W.value("model", consistencyModelName(Model));
  uint64_t Errors = 0, Warnings = 0, Disagreements = 0;
  W.beginArray("points");
  for (const LintJsonPoint &Point : Points) {
    W.beginObject();
    W.value("system", Point.System);
    W.beginArray("kernels");
    for (const std::string &Kernel : Point.Kernels)
      W.value(Kernel);
    W.endArray();
    W.value("errors", uint64_t(Point.Report.errorCount()));
    W.value("warnings", uint64_t(Point.Report.warningCount()));
    W.value("dynamically_race_free", Point.DynamicallyRaceFree);
    W.value("disagreement", Point.Disagreement);
    W.beginArray("diagnostics");
    for (const LintDiagnostic &Diag : Point.Report.Diags) {
      W.beginObject();
      W.value("kind", lintKindName(Diag.Kind));
      W.value("severity", lintSeverityName(Diag.Severity));
      W.value("step", uint64_t(Diag.StepIndex));
      W.value("object", Diag.Object);
      W.value("message", Diag.Message);
      W.value("fix", Diag.FixHint);
      W.endObject();
    }
    W.endArray();
    W.endObject();
    Errors += Point.Report.errorCount();
    Warnings += Point.Report.warningCount();
    Disagreements += Point.Disagreement ? 1 : 0;
  }
  W.endArray();
  W.beginObject("summary");
  W.value("points", uint64_t(Points.size()));
  W.value("errors", Errors);
  W.value("warnings", Warnings);
  W.value("disagreements", Disagreements);
  W.endObject();
  W.endObject();
  return W.take();
}

bool hetsim::validateLintJson(const std::string &Text, std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Text, Doc, Error))
    return false;
  const JsonValue *Schema =
      require(Doc, "schema", JsonValue::Kind::String, "document", Error);
  if (!Schema)
    return false;
  if (Schema->StringValue != "hetsim-lint-v2") {
    Error = "unknown schema '" + Schema->StringValue + "'";
    return false;
  }
  if (!require(Doc, "model", JsonValue::Kind::String, "document", Error))
    return false;
  const JsonValue *Points =
      require(Doc, "points", JsonValue::Kind::Array, "document", Error);
  if (!Points)
    return false;

  uint64_t Errors = 0, Warnings = 0, Disagreements = 0;
  for (size_t I = 0; I != Points->Elements.size(); ++I) {
    const JsonValue &Point = Points->Elements[I];
    std::string Where = "point " + std::to_string(I);
    if (!Point.isObject())
      return Error = Where + ": not an object", false;
    if (!require(Point, "system", JsonValue::Kind::String, Where, Error) ||
        !require(Point, "kernels", JsonValue::Kind::Array, Where, Error) ||
        !require(Point, "errors", JsonValue::Kind::Number, Where, Error) ||
        !require(Point, "warnings", JsonValue::Kind::Number, Where, Error) ||
        !require(Point, "dynamically_race_free", JsonValue::Kind::Bool,
                 Where, Error) ||
        !require(Point, "disagreement", JsonValue::Kind::Bool, Where,
                 Error))
      return false;
    const JsonValue *Diags =
        require(Point, "diagnostics", JsonValue::Kind::Array, Where, Error);
    if (!Diags)
      return false;
    for (size_t D = 0; D != Diags->Elements.size(); ++D) {
      const JsonValue &Diag = Diags->Elements[D];
      std::string DiagWhere = Where + " diagnostic " + std::to_string(D);
      if (!Diag.isObject())
        return Error = DiagWhere + ": not an object", false;
      if (!require(Diag, "kind", JsonValue::Kind::String, DiagWhere,
                   Error) ||
          !require(Diag, "severity", JsonValue::Kind::String, DiagWhere,
                   Error) ||
          !require(Diag, "step", JsonValue::Kind::Number, DiagWhere,
                   Error) ||
          !require(Diag, "message", JsonValue::Kind::String, DiagWhere,
                   Error))
        return false;
    }
    const JsonValue *PErr = Point.find("errors");
    const JsonValue *PWarn = Point.find("warnings");
    Errors += uint64_t(PErr->NumberValue);
    Warnings += uint64_t(PWarn->NumberValue);
    if (Point.find("disagreement")->BoolValue)
      Disagreements += 1;
  }

  const JsonValue *Summary =
      require(Doc, "summary", JsonValue::Kind::Object, "document", Error);
  if (!Summary)
    return false;
  struct {
    const char *Key;
    uint64_t Want;
  } Counts[] = {{"points", Points->Elements.size()},
                {"errors", Errors},
                {"warnings", Warnings},
                {"disagreements", Disagreements}};
  for (const auto &Count : Counts) {
    const JsonValue *Member = require(*Summary, Count.Key,
                                      JsonValue::Kind::Number, "summary",
                                      Error);
    if (!Member)
      return false;
    if (uint64_t(Member->NumberValue) != Count.Want) {
      Error = std::string("summary.") + Count.Key +
              " disagrees with the points array";
      return false;
    }
  }
  return true;
}
