//===- tests/check_test.cpp - Regression-check engine tests ---------------===//
//
// Covers the check subsystem end to end: value parsing, tolerance bands
// at their boundaries, cfg parsing (including malformed input), document
// diffing with perturbed values, metrics-JSON documents, fidelity checks,
// and the bless round-trip through a scratch refs/ tree.
//
//===----------------------------------------------------------------------===//

#include "check/Compare.h"
#include "check/Fidelity.h"
#include "check/Golden.h"
#include "check/ResultDoc.h"
#include "check/Tolerance.h"
#include "common/TextTable.h"
#include "obs/Json.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

using namespace hetsim;

namespace {

//===----------------------------------------------------------------------===//
// Value parsing
//===----------------------------------------------------------------------===//

TEST(ResultValue, ParsesPlainNumbers) {
  ResultValue V = parseResultValue("159.75");
  EXPECT_TRUE(V.IsNumber);
  EXPECT_DOUBLE_EQ(V.Number, 159.75);
  EXPECT_EQ(V.Text, "159.75");
}

TEST(ResultValue, StripsThousandsSeparators) {
  ResultValue V = parseResultValue("8,585,229");
  EXPECT_TRUE(V.IsNumber);
  EXPECT_DOUBLE_EQ(V.Number, 8585229.0);
}

TEST(ResultValue, StripsTrailingPercent) {
  ResultValue V = parseResultValue("30.7%");
  EXPECT_TRUE(V.IsNumber);
  EXPECT_DOUBLE_EQ(V.Number, 30.7);
}

TEST(ResultValue, KeepsTextAsText) {
  ResultValue V = parseResultValue("CPU+GPU");
  EXPECT_FALSE(V.IsNumber);
  EXPECT_EQ(V.Text, "CPU+GPU");
}

//===----------------------------------------------------------------------===//
// Tolerance bands
//===----------------------------------------------------------------------===//

TEST(Tolerance, AbsBoundaryIsInclusive) {
  Tolerance T{0.5, 0.0};
  EXPECT_TRUE(T.accepts(10.0, 10.5));
  EXPECT_TRUE(T.accepts(10.0, 9.5));
  EXPECT_FALSE(T.accepts(10.0, 10.51));
}

TEST(Tolerance, RelBoundaryIsInclusive) {
  Tolerance T{0.0, 0.01};
  EXPECT_TRUE(T.accepts(100.0, 101.0));
  EXPECT_TRUE(T.accepts(100.0, 99.0));
  EXPECT_FALSE(T.accepts(100.0, 101.1));
  // Relative band scales with the reference magnitude.
  EXPECT_TRUE(T.accepts(-200.0, -198.0));
}

TEST(Tolerance, WiderOfAbsAndRelWins) {
  Tolerance T{5.0, 0.001};
  EXPECT_TRUE(T.accepts(10.0, 14.9)); // abs dominates near zero
  Tolerance T2{0.1, 0.1};
  EXPECT_TRUE(T2.accepts(1000.0, 1090.0)); // rel dominates at scale
}

TEST(Tolerance, ZeroBandMeansExact) {
  Tolerance T{0.0, 0.0};
  EXPECT_TRUE(T.accepts(42.0, 42.0));
  EXPECT_FALSE(T.accepts(42.0, 42.0000001));
}

TEST(Tolerance, GlobMatchesStarsAndLiterals) {
  EXPECT_TRUE(globMatch("*", "anything"));
  EXPECT_TRUE(globMatch("norm_*", "norm_to_ideal"));
  EXPECT_TRUE(globMatch("*comms", "# comms"));
  EXPECT_TRUE(globMatch("*_frac", "comm_frac"));
  EXPECT_FALSE(globMatch("norm_*", "comm_us"));
  EXPECT_TRUE(globMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(globMatch("a*b*c", "aXXbYY"));
}

TEST(ToleranceSpec, LastMatchingRuleWins) {
  ToleranceSpec Spec;
  std::string Error;
  ASSERT_TRUE(Spec.parse("default abs=0 rel=0.002\n"
                         "rule * total_us abs=1 rel=0\n"
                         "rule fig5.csv total_us abs=9 rel=0\n",
                         Error))
      << Error;
  EXPECT_DOUBLE_EQ(Spec.lookup("fig5.csv", "total_us").Abs, 9.0);
  EXPECT_DOUBLE_EQ(Spec.lookup("fig6.csv", "total_us").Abs, 1.0);
  EXPECT_DOUBLE_EQ(Spec.lookup("fig6.csv", "comm_us").Rel, 0.002);
}

TEST(ToleranceSpec, RejectsMalformedLinesWithLineNumber) {
  ToleranceSpec Spec;
  std::string Error;
  EXPECT_FALSE(Spec.parse("default abs=0\nrule onlyonearg\n", Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
}

TEST(ToleranceSpec, ShippedConfigParses) {
  // Guards the checked-in policy file itself against grammar rot.
  ToleranceSpec Spec;
  std::string Error;
  ASSERT_TRUE(ToleranceSpec::loadFile(std::string(HETSIM_SOURCE_DIR) +
                                          "/refs/tolerances.cfg",
                                      Spec, Error))
      << Error;
  EXPECT_FALSE(Spec.Rules.empty());
}

//===----------------------------------------------------------------------===//
// Document parsing
//===----------------------------------------------------------------------===//

TEST(ResultDoc, CsvRepairsUnquotedThousandsSplits) {
  // "480,768" was written unquoted, so the raw row has one extra cell.
  ResultDoc Doc = ResultDoc::fromCsv(
      "t.csv", "kernel,bytes,count\nreduction,480,768,2\n");
  ASSERT_EQ(Doc.Rows.size(), 1u);
  const ResultValue *Bytes = Doc.Rows[0].find("bytes");
  ASSERT_NE(Bytes, nullptr);
  EXPECT_TRUE(Bytes->IsNumber);
  EXPECT_DOUBLE_EQ(Bytes->Number, 480768.0);
  EXPECT_EQ(Doc.Rows[0].Label, "reduction");
}

TEST(ResultDoc, ArtifactTextSplitsTablesAndProse) {
  const char *Text = "Figure 5: case studies\n"
                     "\n"
                     "system      total_us   comm_us\n"
                     "------------------------------\n"
                     "CPU+GPU       159.75     49.05\n"
                     "Fusion        137.84     27.26\n"
                     "\n"
                     "footnote line\n";
  ResultDoc Doc = ResultDoc::fromArtifactText("fig5.txt", Text);
  ASSERT_EQ(Doc.Rows.size(), 2u);
  EXPECT_EQ(Doc.Rows[0].Label, "CPU+GPU");
  const ResultValue *Total = Doc.Rows[0].find("total_us");
  ASSERT_NE(Total, nullptr);
  EXPECT_DOUBLE_EQ(Total->Number, 159.75);
  // Title and footnote survive as exact-match prose.
  ASSERT_GE(Doc.Prose.size(), 2u);
  EXPECT_EQ(Doc.Prose.front(), "Figure 5: case studies");
  EXPECT_EQ(Doc.Prose.back(), "footnote line");
}

TEST(ResultDoc, FromTextTableMatchesRenderedParse) {
  // A bench writes one TextTable twice, as aligned text (out/*.txt) and
  // as its CSV export: both parse to the same rows.
  TextTable Table({"kernel", "system", "total_us"});
  Table.addRow({"reduction", "CPU+GPU", "159.75"});
  Table.addRow({"reduction", "Fusion", "137.84"});
  ResultDoc Csv = ResultDoc::fromCsv("t", Table.renderCsv());
  ResultDoc Reparsed = ResultDoc::fromArtifactText("t", Table.render());
  ToleranceSpec Spec;
  EXPECT_TRUE(compareDocs(Csv, Reparsed, Spec).ok());
  ASSERT_EQ(Reparsed.Rows.size(), 2u);
  EXPECT_EQ(Reparsed.Rows[1].Label, "reduction/Fusion");
  const ResultValue *Total = Reparsed.Rows[1].find("total_us");
  ASSERT_NE(Total, nullptr);
  EXPECT_DOUBLE_EQ(Total->Number, 137.84);
}

TEST(ResultDoc, MetricsJsonBecomesRunRow) {
  MetricsSnapshot M;
  M.add("dram.cpu.reads", 1024);
  M.add("noc.hops", 77);
  ResultDoc Doc;
  std::string Error;
  ASSERT_TRUE(ResultDoc::fromMetricsJson("m.json", renderMetricsJson(M), Doc,
                                         Error))
      << Error;
  ASSERT_EQ(Doc.Rows.size(), 1u);
  EXPECT_EQ(Doc.Rows[0].Label, "run");
  const ResultValue *Reads = Doc.Rows[0].find("dram.cpu.reads");
  ASSERT_NE(Reads, nullptr);
  EXPECT_DOUBLE_EQ(Reads->Number, 1024.0);
}

TEST(ResultDoc, RejectsMalformedMetricsJson) {
  ResultDoc Doc;
  std::string Error;
  EXPECT_FALSE(ResultDoc::fromMetricsJson("m.json", "{\"schema\":\"nope\"}",
                                          Doc, Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Comparison engine
//===----------------------------------------------------------------------===//

ResultDoc twoRowDoc(double CpuGpuTotal) {
  std::string Csv = "kernel,system,total_us,comm_us\n"
                    "reduction,CPU+GPU," + std::to_string(CpuGpuTotal) +
                    ",49.05\n"
                    "reduction,Fusion,137.84,27.26\n";
  return ResultDoc::fromCsv("fig5.csv", Csv);
}

TEST(Compare, IdenticalDocsAreClean) {
  ToleranceSpec Spec;
  DiffReport Report = compareDocs(twoRowDoc(159.75), twoRowDoc(159.75), Spec);
  EXPECT_TRUE(Report.ok()) << Report.render("diff");
  EXPECT_EQ(Report.RowsCompared, 2u);
  EXPECT_GE(Report.ValuesCompared, 4u);
}

TEST(Compare, PerturbedValueFailsWithRankedDrift) {
  ToleranceSpec Spec; // zero default band
  DiffReport Report = compareDocs(twoRowDoc(159.75), twoRowDoc(171.20), Spec);
  ASSERT_EQ(Report.Entries.size(), 1u);
  const DiffEntry &E = Report.Entries[0];
  EXPECT_EQ(E.Kind, DiffKind::ValueDrift);
  EXPECT_EQ(E.Doc, "fig5.csv");
  EXPECT_EQ(E.Row, "reduction/CPU+GPU");
  EXPECT_EQ(E.Field, "total_us");
  EXPECT_NEAR(E.AbsDelta, 11.45, 1e-9);
}

TEST(Compare, PerturbationWithinTolerancePasses) {
  ToleranceSpec Spec;
  Spec.Default = Tolerance{0.0, 0.002};
  // 0.19% drift sits inside the 0.2% band.
  DiffReport Report = compareDocs(twoRowDoc(159.75), twoRowDoc(160.05), Spec);
  EXPECT_TRUE(Report.ok()) << Report.render("diff");
}

TEST(Compare, PerturbedMetricsDocFailsDiff) {
  MetricsSnapshot Ref, Act;
  Ref.add("dram.cpu.reads", 1024);
  Act.add("dram.cpu.reads", 1025);
  ResultDoc RefDoc, ActDoc;
  std::string Error;
  ASSERT_TRUE(ResultDoc::fromMetricsJson("m.json", renderMetricsJson(Ref),
                                         RefDoc, Error));
  ASSERT_TRUE(ResultDoc::fromMetricsJson("m.json", renderMetricsJson(Act),
                                         ActDoc, Error));
  ToleranceSpec Spec;
  DiffReport Report = compareDocs(RefDoc, ActDoc, Spec);
  ASSERT_EQ(Report.Entries.size(), 1u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::ValueDrift);
  EXPECT_EQ(Report.Entries[0].Field, "dram.cpu.reads");
}

TEST(Compare, MissingRowAndFieldAreStructural) {
  ResultDoc Ref = ResultDoc::fromCsv(
      "t.csv", "kernel,total_us,comm_us\nreduction,159.75,49.05\n");
  ResultDoc NoRow = ResultDoc::fromCsv("t.csv", "kernel,total_us,comm_us\n");
  ResultDoc NoField =
      ResultDoc::fromCsv("t.csv", "kernel,total_us\nreduction,159.75\n");
  ToleranceSpec Spec;
  DiffReport RowReport = compareDocs(Ref, NoRow, Spec);
  ASSERT_FALSE(RowReport.ok());
  EXPECT_EQ(RowReport.Entries[0].Kind, DiffKind::MissingRow);
  DiffReport FieldReport = compareDocs(Ref, NoField, Spec);
  ASSERT_FALSE(FieldReport.ok());
  EXPECT_EQ(FieldReport.Entries[0].Kind, DiffKind::MissingField);
}

TEST(Compare, ProseMismatchFailsExactly) {
  ResultDoc Ref = ResultDoc::fromArtifactText("a.txt", "exact footnote\n");
  ResultDoc Act = ResultDoc::fromArtifactText("a.txt", "changed footnote\n");
  ToleranceSpec Spec;
  DiffReport Report = compareDocs(Ref, Act, Spec);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::TextMismatch);
}

TEST(Compare, StructuralBreaksRankAboveDrifts) {
  DiffReport Report;
  DiffEntry Drift;
  Drift.Kind = DiffKind::ValueDrift;
  Drift.RelDelta = 0.5;
  DiffEntry SmallDrift = Drift;
  SmallDrift.RelDelta = 0.01;
  DiffEntry Missing;
  Missing.Kind = DiffKind::MissingRow;
  Report.Entries = {SmallDrift, Drift, Missing};
  Report.sortBySeverity();
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::MissingRow);
  EXPECT_DOUBLE_EQ(Report.Entries[1].RelDelta, 0.5);
  EXPECT_DOUBLE_EQ(Report.Entries[2].RelDelta, 0.01);
}

//===----------------------------------------------------------------------===//
// Fidelity checks
//===----------------------------------------------------------------------===//

TEST(Fidelity, ParsesValueAndTrendLines) {
  FidelitySet Set;
  std::string Error;
  ASSERT_TRUE(Set.parse(
      "# comment\n"
      "value t.csv :: reduction :: #inst CPU == 70006 rel=0.02\n"
      "trend t.csv :: comm_us :: a < b <= c\n",
      Error))
      << Error;
  ASSERT_EQ(Set.Checks.size(), 2u);
  EXPECT_FALSE(Set.Checks[0].IsTrend);
  EXPECT_EQ(Set.Checks[0].Field, "#inst CPU"); // mid-line '#' is data
  EXPECT_DOUBLE_EQ(Set.Checks[0].Expected, 70006.0);
  EXPECT_DOUBLE_EQ(Set.Checks[0].Band.Rel, 0.02);
  ASSERT_TRUE(Set.Checks[1].IsTrend);
  ASSERT_EQ(Set.Checks[1].TrendRows.size(), 3u);
  ASSERT_EQ(Set.Checks[1].TrendOps.size(), 2u);
  EXPECT_EQ(Set.Checks[1].TrendOps[0], FidelityOp::Lt);
  EXPECT_EQ(Set.Checks[1].TrendOps[1], FidelityOp::Le);
}

TEST(Fidelity, RejectsMalformedLines) {
  FidelitySet Set;
  std::string Error;
  EXPECT_FALSE(Set.parse("value missing-separators\n", Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
}

TEST(Fidelity, EvaluatesValuesAndTrends) {
  ResultDoc Doc = ResultDoc::fromCsv("f.csv",
                                     "kernel,system,comm_us\n"
                                     "reduction,GMAC,4.75\n"
                                     "reduction,Fusion,27.26\n"
                                     "reduction,CPU+GPU,49.05\n");
  auto Lookup = [&Doc](const std::string &Name) -> const ResultDoc * {
    return Name == "f.csv" ? &Doc : nullptr;
  };
  FidelitySet Good;
  std::string Error;
  ASSERT_TRUE(Good.parse(
      "value f.csv :: reduction/GMAC :: comm_us == 4.75 abs=0.01\n"
      "trend f.csv :: comm_us :: reduction/GMAC < reduction/Fusion < "
      "reduction/CPU+GPU\n",
      Error))
      << Error;
  EXPECT_TRUE(evaluateFidelity(Good, Lookup).ok());

  FidelitySet Inverted;
  ASSERT_TRUE(Inverted.parse("trend f.csv :: comm_us :: reduction/CPU+GPU < "
                             "reduction/GMAC\n",
                             Error));
  DiffReport Report = evaluateFidelity(Inverted, Lookup);
  ASSERT_EQ(Report.Entries.size(), 1u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::FidelityTrend);

  FidelitySet MissingDocSet;
  ASSERT_TRUE(
      MissingDocSet.parse("value nope.csv :: r :: comm_us == 1\n", Error));
  DiffReport MissingReport = evaluateFidelity(MissingDocSet, Lookup);
  ASSERT_EQ(MissingReport.Entries.size(), 1u);
  EXPECT_EQ(MissingReport.Entries[0].Kind, DiffKind::MissingDoc);
}

TEST(Fidelity, ShippedConfigParses) {
  FidelitySet Set;
  std::string Error;
  ASSERT_TRUE(FidelitySet::loadFile(std::string(HETSIM_SOURCE_DIR) +
                                        "/refs/paper/fidelity.cfg",
                                    Set, Error))
      << Error;
  EXPECT_GE(Set.Checks.size(), 50u);
}

//===----------------------------------------------------------------------===//
// Golden driver: manifest, bless round-trip, missing refs
//===----------------------------------------------------------------------===//

class GoldenFixture : public ::testing::Test {
protected:
  void SetUp() override {
    Root = std::filesystem::path(::testing::TempDir()) /
           ("hetsim_check_test_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(Root);
    std::filesystem::create_directories(Root / "out");
    std::filesystem::create_directories(Root / "refs");
    Paths.OutDir = (Root / "out").string();
    Paths.RefsDir = (Root / "refs").string();
  }
  void TearDown() override { std::filesystem::remove_all(Root); }

  std::filesystem::path Root;
  CheckPaths Paths;
};

TEST_F(GoldenFixture, BlessRoundTripThenDiffIsClean) {
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/a.csv",
                            "kernel,total_us\nreduction,159.75\n"));
  std::vector<std::string> Names = {"a.csv"};
  std::string Error;
  ASSERT_TRUE(blessGoldens(Paths, Names, Error)) << Error;

  ToleranceSpec Spec;
  DiffReport Clean = diffGoldens(Paths, Names, Spec);
  EXPECT_TRUE(Clean.ok()) << Clean.render("diff");

  // Drift the candidate: the blessed golden must now catch it.
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/a.csv",
                            "kernel,total_us\nreduction,171.20\n"));
  DiffReport Dirty = diffGoldens(Paths, Names, Spec);
  ASSERT_EQ(Dirty.Entries.size(), 1u);
  EXPECT_EQ(Dirty.Entries[0].Kind, DiffKind::ValueDrift);

  // Re-bless accepts the new truth.
  ASSERT_TRUE(blessGoldens(Paths, Names, Error)) << Error;
  EXPECT_TRUE(diffGoldens(Paths, Names, Spec).ok());
}

TEST_F(GoldenFixture, MissingGoldenAndCandidateAreReported) {
  ToleranceSpec Spec;
  std::vector<std::string> Names = {"ghost.csv"};
  DiffReport Report = diffGoldens(Paths, Names, Spec);
  ASSERT_EQ(Report.Entries.size(), 1u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::MissingDoc);

  // Golden present, candidate absent: still one MissingDoc entry.
  std::filesystem::create_directories(Root / "refs" / "golden");
  ASSERT_TRUE(writeTextFile(Paths.goldenPath("ghost.csv"),
                            "kernel,total_us\nreduction,1\n"));
  DiffReport Report2 = diffGoldens(Paths, Names, Spec);
  ASSERT_EQ(Report2.Entries.size(), 1u);
  EXPECT_EQ(Report2.Entries[0].Kind, DiffKind::MissingDoc);
}

TEST_F(GoldenFixture, ManifestRejectsMissingOrEmptyFiles) {
  std::vector<std::string> Names;
  std::string Error;
  EXPECT_FALSE(loadManifest(Paths.manifestPath(), Names, Error));
  ASSERT_TRUE(writeTextFile(Paths.manifestPath(), "# only comments\n"));
  EXPECT_FALSE(loadManifest(Paths.manifestPath(), Names, Error));
  ASSERT_TRUE(writeTextFile(Paths.manifestPath(),
                            "# header\na.csv\nb.txt # trailing\n"));
  ASSERT_TRUE(loadManifest(Paths.manifestPath(), Names, Error)) << Error;
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "a.csv");
  EXPECT_EQ(Names[1], "b.txt");
}

} // namespace
