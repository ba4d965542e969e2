//===- tests/check_test.cpp - Regression-check engine tests ---------------===//
//
// Covers the check subsystem end to end: value parsing, fidelity bands at
// their boundaries, RFC 4180 CSV parsing (including malformed input),
// byte diffs and the report lines they produce, fidelity checks, and the
// bless round-trip through a scratch refs/ tree.
//
//===----------------------------------------------------------------------===//

#include "check/Compare.h"
#include "check/Fidelity.h"
#include "check/Golden.h"
#include "check/ResultDoc.h"
#include "common/StringUtil.h"
#include "common/TextTable.h"
#include "obs/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
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
// Fidelity bands
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

//===----------------------------------------------------------------------===//
// CSV documents
//===----------------------------------------------------------------------===//

TEST(ResultDoc, CsvReadsQuotedThousandsCells) {
  ResultDoc Doc;
  std::string Error;
  ASSERT_TRUE(ResultDoc::fromCsv(
      "kernel,bytes,count\nreduction,\"480,768\",2\n", Doc, Error))
      << Error;
  ASSERT_EQ(Doc.Rows.size(), 1u);
  const ResultValue *Bytes = Doc.Rows[0].find("bytes");
  ASSERT_NE(Bytes, nullptr);
  EXPECT_TRUE(Bytes->IsNumber);
  EXPECT_DOUBLE_EQ(Bytes->Number, 480768.0);
  EXPECT_EQ(Doc.Rows[0].Label, "reduction");
}

TEST(ResultDoc, FromTextTableMatchesRenderedParse) {
  // A bench's CSV export quotes the cells that hold ',' or '"' (RFC
  // 4180), so every cell parses back to exactly the table's text.
  TextTable Table({"kernel", "system", "bytes", "note"});
  Table.addRow({"reduction", "CPU+GPU", "480,768", "say \"hi\", twice"});
  Table.addRow({"matrix mul", "Fusion", "786,432", ""});
  std::string Csv = Table.renderCsv();
  EXPECT_NE(Csv.find("\"480,768\""), std::string::npos) << Csv;
  EXPECT_NE(Csv.find("\"say \"\"hi\"\", twice\""), std::string::npos) << Csv;

  ResultDoc Doc;
  std::string Error;
  ASSERT_TRUE(ResultDoc::fromCsv(Csv, Doc, Error)) << Error;
  ASSERT_EQ(Doc.Rows.size(), 2u);
  EXPECT_EQ(Doc.Rows[0].find("bytes")->Text, "480,768");
  EXPECT_DOUBLE_EQ(Doc.Rows[0].find("bytes")->Number, 480768.0);
  EXPECT_EQ(Doc.Rows[0].find("note")->Text, "say \"hi\", twice");
  EXPECT_EQ(Doc.Rows[1].Label, "matrix mul/Fusion");
  EXPECT_EQ(Doc.Rows[1].find("note")->Text, "");
}

TEST(ResultDoc, CsvRowWithWrongFieldCountIsAnError) {
  // "480,768" written unquoted splits into two fields.
  ResultDoc Doc;
  std::string Error;
  EXPECT_FALSE(ResultDoc::fromCsv(
      "kernel,bytes,count\nreduction,480,768,2\n", Doc, Error));
  EXPECT_NE(Error.find("line 2 has 4 fields"), std::string::npos) << Error;
  EXPECT_FALSE(ResultDoc::fromCsv("a,b\n\"1,2\n", Doc, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_FALSE(ResultDoc::fromCsv("a,b\n\"1\"x,2\n", Doc, Error));
}

//===----------------------------------------------------------------------===//
// Byte diffs
//===----------------------------------------------------------------------===//

const char *Fig5Csv =
    "kernel,system,seq_us,par_us,comm_us,total_us,norm_to_ideal,comm_frac\n"
    "reduction,CPU+GPU,38.98,71.73,49.05,159.75,1.432,30.7%\n"
    "reduction,Fusion,38.98,71.73,27.26,137.84,1.235,19.8%\n";

/// \p Text with its first \p From replaced by \p To.
std::string edited(std::string Text, const std::string &From,
                   const std::string &To) {
  size_t Pos = Text.find(From);
  EXPECT_NE(Pos, std::string::npos) << From;
  return Pos == std::string::npos ? Text : Text.replace(Pos, From.size(), To);
}

TEST(Compare, IdenticalDocsAreClean) {
  DiffEntry Entry;
  EXPECT_TRUE(compareBytes("fig5.csv", Fig5Csv, Fig5Csv, Entry));
  EXPECT_TRUE(compareBytes("empty.txt", "", "", Entry));
}

TEST(Compare, PerturbedValueFailsAtItsLine) {
  DiffEntry Entry;
  ASSERT_FALSE(compareBytes("fig5.csv", Fig5Csv,
                            edited(Fig5Csv, "159.75", "171.20"), Entry));
  EXPECT_EQ(Entry.Kind, DiffKind::ByteMismatch);
  EXPECT_EQ(Entry.Doc, "fig5.csv");
  EXPECT_EQ(Entry.Row, "line 2");
  EXPECT_NE(Entry.Detail.find("1 of 3 lines differ"), std::string::npos)
      << Entry.Detail;
  EXPECT_NE(Entry.Detail.find("act 'reduction,CPU+GPU,38.98,71.73,49.05,"
                              "171.20,"),
            std::string::npos)
      << Entry.Detail;
}

TEST(Compare, PerturbationWithinOldBandFails) {
  // 38.98 -> 39.01 is a 0.08% drift, inside the 0.2% band golden diffs
  // once allowed; a byte diff catches it.
  DiffEntry Entry;
  ASSERT_FALSE(compareBytes("fig5.csv", Fig5Csv,
                            edited(Fig5Csv, "38.98", "39.01"), Entry));
  EXPECT_EQ(Entry.Row, "line 2");
}

TEST(Compare, RespacedColumnFails) {
  const char *Table = "system   total_us\n"
                      "-----------------\n"
                      "CPU+GPU  159.75\n";
  DiffEntry Entry;
  ASSERT_FALSE(compareBytes("a.txt", Table,
                            edited(Table, "CPU+GPU  ", "CPU+GPU   "), Entry));
  EXPECT_EQ(Entry.Row, "line 3");
  EXPECT_NE(Entry.Detail.find("1 of 3 lines differ"), std::string::npos)
      << Entry.Detail;
}

TEST(Compare, ProseMismatchFailsExactly) {
  DiffEntry Entry;
  ASSERT_FALSE(compareBytes("a.txt", "title\nexact footnote\n",
                            "title\nchanged footnote\nextra\n", Entry));
  EXPECT_EQ(Entry.Kind, DiffKind::ByteMismatch);
  EXPECT_EQ(Entry.Row, "line 2");
  EXPECT_NE(Entry.Detail.find("2 of 3 lines differ; ref 'exact footnote' vs "
                              "act 'changed footnote'"),
            std::string::npos)
      << Entry.Detail;
}

TEST(Compare, MissingTrailingNewlineFails) {
  DiffEntry Entry;
  std::string Truncated(Fig5Csv);
  Truncated.pop_back();
  ASSERT_FALSE(compareBytes("fig5.csv", Fig5Csv, Truncated, Entry));
  EXPECT_EQ(Entry.Row, "line 3");
  EXPECT_NE(Entry.Detail.find("(no newline at end)"), std::string::npos)
      << Entry.Detail;
}

TEST(Compare, ReportLinesNameTheirArtifact) {
  // perfbench reads the flagged artifacts of a diff or fidelity report
  // with this pattern; every numbered line must yield its document.
  DiffReport Report;
  DiffEntry Entry;
  ASSERT_FALSE(compareBytes("fig5.csv", Fig5Csv,
                            edited(Fig5Csv, "38.98", "39.01"), Entry));
  Report.Entries.push_back(Entry);
  Entry = DiffEntry();
  Entry.Kind = DiffKind::MissingDoc;
  Entry.Doc = "table3.csv";
  Entry.Detail = "cannot read out/table3.csv";
  Report.Entries.push_back(Entry);
  Entry = DiffEntry();
  Entry.Kind = DiffKind::FidelityValue;
  Entry.Doc = "fig6.csv";
  Entry.Row = "reduction/GMAC";
  Entry.Field = "page_faults";
  Report.Entries.push_back(Entry);

  std::string Text = Report.render("hetsim_check diff", "lines");
  std::regex Pattern(R"(^\s*\d+\.\s+\S+\s+(\S+))");
  std::vector<std::string> Flagged;
  for (const std::string &Line : splitString(Text, '\n')) {
    std::smatch Match;
    if (std::regex_search(Line, Match, Pattern))
      Flagged.push_back(Match[1]);
  }
  EXPECT_EQ(Flagged,
            (std::vector<std::string>{"fig5.csv", "table3.csv", "fig6.csv"}))
      << Text;
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
  // Fidelity reads CSV exports only.
  EXPECT_FALSE(Set.parse("# Table III\n"
                         "value table3_benchmarks.txt :: reduction :: "
                         "# comms == 2\n",
                         Error));
  EXPECT_NE(Error.find("line 2: document 'table3_benchmarks.txt' is not a "
                       ".csv artifact"),
            std::string::npos)
      << Error;
}

/// A scratch output directory, removed on destruction.
struct ScratchDir {
  std::filesystem::path Path;
  explicit ScratchDir(const std::string &Tag)
      : Path(std::filesystem::path(::testing::TempDir()) /
             (Tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  void write(const std::string &Name, const std::string &Text) const {
    ASSERT_TRUE(writeTextFile((Path / Name).string(), Text));
  }
};

DiffReport evaluate(const std::string &Cfg, const ScratchDir &Out) {
  FidelitySet Set;
  std::string Error;
  EXPECT_TRUE(Set.parse(Cfg, Error)) << Error;
  return evaluateFidelity(Set, Out.Path.string());
}

TEST(Fidelity, EvaluatesValuesAndTrends) {
  ScratchDir Out("hetsim_fidelity_eval");
  Out.write("f.csv", "kernel,system,comm_us\n"
                     "reduction,GMAC,4.75\n"
                     "reduction,Fusion,27.26\n"
                     "reduction,CPU+GPU,49.05\n");
  DiffReport Good = evaluate(
      "value f.csv :: reduction/GMAC :: comm_us == 4.75 abs=0.01\n"
      "trend f.csv :: comm_us :: reduction/GMAC < reduction/Fusion < "
      "reduction/CPU+GPU\n",
      Out);
  EXPECT_TRUE(Good.ok()) << Good.render("fidelity", "values");
  EXPECT_EQ(Good.DocsCompared, 1u);
  EXPECT_EQ(Good.ItemsCompared, 3u);

  DiffReport Report = evaluate(
      "trend f.csv :: comm_us :: reduction/CPU+GPU < reduction/GMAC\n", Out);
  ASSERT_EQ(Report.Entries.size(), 1u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::FidelityTrend);

  // A missing artifact is reported once, however many checks name it.
  DiffReport Missing = evaluate("value nope.csv :: r :: comm_us == 1\n"
                                "value nope.csv :: s :: comm_us == 2\n",
                                Out);
  ASSERT_EQ(Missing.Entries.size(), 1u);
  EXPECT_EQ(Missing.Entries[0].Kind, DiffKind::MissingDoc);
}

TEST(Fidelity, MissingRowAndFieldAreStructural) {
  ScratchDir Out("hetsim_fidelity_structural");
  Out.write("t.csv", "kernel,total_us\nreduction,159.75\n");
  DiffReport Report = evaluate("value t.csv :: k-mean :: total_us == 1\n"
                               "value t.csv :: reduction :: comm_us == 1\n",
                               Out);
  ASSERT_EQ(Report.Entries.size(), 2u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::MissingRow);
  EXPECT_EQ(Report.Entries[1].Kind, DiffKind::MissingField);
}

TEST(Fidelity, MalformedCsvIsOneParseError) {
  ScratchDir Out("hetsim_fidelity_parse");
  Out.write("t.csv", "kernel,bytes\nreduction,480,768\n");
  DiffReport Report = evaluate("value t.csv :: reduction :: bytes == 1\n"
                               "value t.csv :: reduction :: bytes >= 1\n",
                               Out);
  ASSERT_EQ(Report.Entries.size(), 1u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::ParseError);
  EXPECT_EQ(Report.Entries[0].Doc, "t.csv");
  EXPECT_NE(Report.Entries[0].Detail.find("line 2 has 3 fields"),
            std::string::npos)
      << Report.Entries[0].Detail;
}

TEST(Fidelity, ShippedConfigParses) {
  FidelitySet Set;
  std::string Error;
  ASSERT_TRUE(FidelitySet::loadFile(std::string(HETSIM_SOURCE_DIR) +
                                        "/refs/paper/fidelity.cfg",
                                    Set, Error))
      << Error;
  EXPECT_EQ(Set.Checks.size(), 70u);
}

TEST(Fidelity, ShippedCsvGoldensParse) {
  // Every golden CSV is RFC 4180: each row has its header's field count.
  std::vector<std::string> Names;
  std::string Error;
  ASSERT_TRUE(loadManifest(std::string(HETSIM_SOURCE_DIR) + "/refs/MANIFEST",
                           Names, Error))
      << Error;
  size_t Csvs = 0;
  for (const std::string &Name : Names) {
    if (Name.size() < 4 || Name.compare(Name.size() - 4, 4, ".csv") != 0)
      continue;
    ++Csvs;
    std::string Text;
    ASSERT_TRUE(readTextFile(std::string(HETSIM_SOURCE_DIR) +
                                 "/refs/golden/" + Name,
                             Text));
    ResultDoc Doc;
    EXPECT_TRUE(ResultDoc::fromCsv(Text, Doc, Error)) << Name << ": " << Error;
    EXPECT_FALSE(Doc.Rows.empty()) << Name;
  }
  EXPECT_EQ(Csvs, 5u);
}

//===----------------------------------------------------------------------===//
// Golden driver: manifest, bless round-trip, missing refs
//===----------------------------------------------------------------------===//

class GoldenFixture : public ::testing::Test {
protected:
  void SetUp() override {
    std::filesystem::create_directories(Root.Path / "out");
    std::filesystem::create_directories(Root.Path / "refs" / "golden");
    Paths.OutDir = (Root.Path / "out").string();
    Paths.RefsDir = (Root.Path / "refs").string();
  }

  ScratchDir Root{"hetsim_check_test"};
  CheckPaths Paths;
};

TEST_F(GoldenFixture, BlessRoundTripThenDiffIsClean) {
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/a.csv",
                            "kernel,total_us\nreduction,159.75\n"));
  std::vector<std::string> Names = {"a.csv"};
  std::string Error;
  ASSERT_TRUE(blessGoldens(Paths, Names, Error)) << Error;

  DiffReport Clean = diffGoldens(Paths, Names);
  EXPECT_TRUE(Clean.ok()) << Clean.render("diff", "lines");
  EXPECT_EQ(Clean.DocsCompared, 1u);
  EXPECT_EQ(Clean.ItemsCompared, 2u);

  // Drift the candidate: the blessed golden must now catch it.
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/a.csv",
                            "kernel,total_us\nreduction,171.20\n"));
  DiffReport Dirty = diffGoldens(Paths, Names);
  ASSERT_EQ(Dirty.Entries.size(), 1u);
  EXPECT_EQ(Dirty.Entries[0].Kind, DiffKind::ByteMismatch);

  // Re-bless accepts the new truth.
  ASSERT_TRUE(blessGoldens(Paths, Names, Error)) << Error;
  EXPECT_TRUE(diffGoldens(Paths, Names).ok());
}

TEST_F(GoldenFixture, ScratchEditsNameArtifactAndLine) {
  // The shipped goldens, with two edits a tolerance band once let
  // through: Figure 5's CPU+GPU reduction seq_us 38.98 -> 39.01 in both
  // artifacts, and one re-spaced Figure 7 row.
  std::vector<std::string> Names = {"fig5.csv", "fig5_case_studies.txt",
                                    "fig7_address_space.txt", "fig7.csv"};
  std::vector<std::string> Goldens;
  for (const std::string &Name : Names) {
    std::string Text;
    ASSERT_TRUE(readTextFile(std::string(HETSIM_SOURCE_DIR) +
                                 "/refs/golden/" + Name,
                             Text));
    ASSERT_TRUE(writeTextFile(Paths.goldenPath(Name), Text));
    Goldens.push_back(Text);
  }
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/fig5.csv",
                            edited(Goldens[0], "38.98", "39.01")));
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/fig5_case_studies.txt",
                            edited(Goldens[1], "38.98", "39.01")));
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/fig7_address_space.txt",
                            edited(Goldens[2], "reduction    UNI",
                                   "reduction     UNI")));
  ASSERT_TRUE(writeTextFile(Paths.OutDir + "/fig7.csv", Goldens[3]));

  DiffReport Report = diffGoldens(Paths, Names);
  ASSERT_EQ(Report.Entries.size(), 3u) << Report.render("diff", "lines");
  EXPECT_EQ(Report.DocsCompared, 4u);
  EXPECT_EQ(Report.Entries[0].Doc, "fig5.csv");
  EXPECT_EQ(Report.Entries[0].Row, "line 2");
  EXPECT_EQ(Report.Entries[1].Doc, "fig5_case_studies.txt");
  EXPECT_EQ(Report.Entries[1].Row, "line 5");
  EXPECT_EQ(Report.Entries[2].Doc, "fig7_address_space.txt");
  EXPECT_EQ(Report.Entries[2].Row, "line 5");
  for (const DiffEntry &Entry : Report.Entries) {
    EXPECT_EQ(Entry.Kind, DiffKind::ByteMismatch);
    EXPECT_EQ(Entry.Detail.find("1 of "), 0u) << Entry.Detail;
  }
}

TEST_F(GoldenFixture, MissingGoldenAndCandidateAreReported) {
  std::vector<std::string> Names = {"ghost.csv"};
  DiffReport Report = diffGoldens(Paths, Names);
  ASSERT_EQ(Report.Entries.size(), 1u);
  EXPECT_EQ(Report.Entries[0].Kind, DiffKind::MissingDoc);
  EXPECT_NE(Report.Entries[0].Detail.find("golden unavailable"),
            std::string::npos);

  // Golden present, candidate absent: still one MissingDoc entry.
  ASSERT_TRUE(writeTextFile(Paths.goldenPath("ghost.csv"),
                            "kernel,total_us\nreduction,1\n"));
  DiffReport Report2 = diffGoldens(Paths, Names);
  ASSERT_EQ(Report2.Entries.size(), 1u);
  EXPECT_EQ(Report2.Entries[0].Kind, DiffKind::MissingDoc);
  EXPECT_NE(Report2.Entries[0].Detail.find("candidate unavailable"),
            std::string::npos);
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
