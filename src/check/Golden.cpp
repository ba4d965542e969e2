//===- check/Golden.cpp ---------------------------------------------------===//

#include "check/Golden.h"

#include "core/Experiments.h"
#include "obs/Json.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

using namespace hetsim;

bool hetsim::loadManifest(const std::string &Path,
                          std::vector<std::string> &Names,
                          std::string &Error) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    Error = "cannot read " + Path;
    return false;
  }
  Names.clear();
  std::istringstream Stream(Text);
  std::string Line;
  while (std::getline(Stream, Line)) {
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream Tokens(Line);
    std::string Name;
    if (Tokens >> Name)
      Names.push_back(Name);
  }
  if (Names.empty()) {
    Error = Path + " lists no artifacts";
    return false;
  }
  return true;
}

DiffReport hetsim::diffGoldens(const CheckPaths &Paths,
                               const std::vector<std::string> &Names) {
  DiffReport Report;
  for (const std::string &Name : Names) {
    DiffEntry Entry;
    Entry.Kind = DiffKind::MissingDoc;
    Entry.Doc = Name;
    std::string Reference, Actual;
    std::string GoldenPath = Paths.goldenPath(Name);
    std::string CandidatePath = Paths.OutDir + "/" + Name;
    if (!readTextFile(GoldenPath, Reference)) {
      Entry.Detail = "golden unavailable: cannot read " + GoldenPath;
    } else if (!readTextFile(CandidatePath, Actual)) {
      Entry.Detail = "candidate unavailable: cannot read " + CandidatePath;
    } else {
      ++Report.DocsCompared;
      Report.ItemsCompared += static_cast<uint64_t>(
          std::count(Reference.begin(), Reference.end(), '\n'));
      if (compareBytes(Name, Reference, Actual, Entry))
        continue;
    }
    Report.Entries.push_back(std::move(Entry));
  }
  return Report;
}

bool hetsim::blessGoldens(const CheckPaths &Paths,
                          const std::vector<std::string> &Names,
                          std::string &Error) {
  for (const std::string &Name : Names) {
    std::string Text;
    std::string From = Paths.OutDir + "/" + Name;
    if (!readTextFile(From, Text)) {
      Error = "cannot read " + From;
      return false;
    }
    std::string To = Paths.goldenPath(Name);
    std::error_code Ec;
    std::filesystem::path Parent = std::filesystem::path(To).parent_path();
    if (!Parent.empty())
      std::filesystem::create_directories(Parent, Ec);
    if (!writeTextFile(To, Text)) {
      Error = "cannot write " + To;
      return false;
    }
  }
  return true;
}

namespace {

/// Builds the determinism sweep: every case-study system and every
/// address-space option, times \p Kernels.
std::vector<SweepPoint>
determinismPoints(const std::vector<KernelId> &Kernels) {
  std::vector<SystemConfig> Systems;
  for (CaseStudy Study : allCaseStudies())
    Systems.push_back(SystemConfig::forCaseStudy(Study));
  static const AddressSpaceKind Kinds[] = {
      AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
      AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm};
  for (AddressSpaceKind Kind : Kinds)
    Systems.push_back(SystemConfig::forAddressSpaceStudy(Kind));

  std::vector<SweepPoint> Points;
  Points.reserve(Systems.size() * Kernels.size());
  for (const SystemConfig &Config : Systems)
    for (KernelId Kernel : Kernels)
      Points.emplace_back(Config, Kernel);
  return Points;
}

/// Runs the sweep with \p Jobs workers and renders both comparable
/// documents: the Figure-5-style table and the sweep metrics JSON.
void runOnce(const std::vector<SweepPoint> &Points, unsigned Jobs,
             std::string &Table, std::string &MetricsJson) {
  SweepRunner Runner(Jobs);
  std::vector<RunResult> Results = Runner.run(Points);

  std::vector<ExperimentRow> Rows;
  Rows.reserve(Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    ExperimentRow Row;
    Row.System = Points[I].Config.Name;
    Row.Kernel = Points[I].Kernel;
    Row.Result = std::move(Results[I]);
    Rows.push_back(std::move(Row));
  }
  Table = renderFigure5(Rows).render();
  MetricsJson = renderSweepMetricsJson(Points, Runner.metrics());
}

} // namespace

DeterminismOutcome
hetsim::checkSweepDeterminism(unsigned Jobs,
                              const std::vector<KernelId> &Kernels) {
  DeterminismOutcome Outcome;
  if (Jobs < 2)
    Jobs = 2;
  Outcome.Jobs = Jobs;

  std::vector<SweepPoint> Points = determinismPoints(Kernels);
  Outcome.Points = Points.size();

  std::string SerialTable, SerialMetrics;
  runOnce(Points, 1, SerialTable, SerialMetrics);
  std::string ParallelTable, ParallelMetrics;
  runOnce(Points, Jobs, ParallelTable, ParallelMetrics);

  DiffEntry Divergence;
  if (!compareBytes("rendered table", SerialTable, ParallelTable,
                    Divergence) ||
      !compareBytes("sweep metrics document", SerialMetrics, ParallelMetrics,
                    Divergence)) {
    Outcome.Detail = Divergence.Doc + " diverges at " + Divergence.Row +
                     " (ref = serial, act = parallel): " + Divergence.Detail;
    return Outcome;
  }
  Outcome.Ok = true;
  Outcome.Detail = "serial and jobs=" + std::to_string(Jobs) +
                   " sweeps byte-identical over " +
                   std::to_string(Points.size()) + " points (table + metrics)";
  return Outcome;
}
