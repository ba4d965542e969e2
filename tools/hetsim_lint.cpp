//===- tools/hetsim_lint.cpp - Memory-model linter front end --------------===//
///
/// \file
/// The `hetsim_lint` command-line tool: static legality analysis over
/// lowered programs, before any cycle simulation runs.
///
///   hetsim_lint [--all] [--jobs N] [--model M] [--json FILE]
///   hetsim_lint --system S --kernel K [--dot] [--json FILE]
///       [--max-diagnostics N] [key=value ...]
///
/// Without a mode flag the tool verifies the whole shipped design space
/// (five case studies plus four address-space studies, across all six
/// kernels): per-program lint, with the dynamic ConsistencyChecker as a
/// differential oracle. --json writes a "hetsim-lint-v2" document ("-"
/// for stdout).
///
/// Exit codes, by severity class:
///   0  clean
///   1  warnings only
///   2  usage error (unknown argument/system/kernel/model)
///   3  lint errors
///   4  static/dynamic disagreements (lint-clean but dynamically racy)
///
//===----------------------------------------------------------------------===//

#include "analysis/LintJson.h"
#include "analysis/SweepLinter.h"
#include "core/ConsistencyValidation.h"
#include "core/Experiments.h"
#include "obs/Json.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace hetsim;

namespace {

// Severity-class exit codes.
enum : int {
  ExitClean = 0,
  ExitWarnings = 1,
  ExitUsage = 2,
  ExitErrors = 3,
  ExitDisagreement = 4,
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hetsim_lint [--all] [--jobs N] [--model weak|release|strong]\n"
      "          [--json FILE]\n"
      "  hetsim_lint --system <name> --kernel <name> [--dot] [--json FILE]\n"
      "          [--max-diagnostics N] [--model M] [key=value ...]\n"
      "systems: CPU+GPU LRB GMAC Fusion IDEAL-HETERO UNI PAS DIS ADSM\n"
      "exit codes: 0 clean, 1 warnings, 2 usage, 3 errors,\n"
      "            4 static/dynamic disagreement\n");
  return ExitUsage;
}

bool modelByName(const std::string &Name, ConsistencyModel &Out) {
  if (Name == "weak") {
    Out = ConsistencyModel::Weak;
    return true;
  }
  if (Name == "release") {
    Out = ConsistencyModel::CentralizedRelease;
    return true;
  }
  if (Name == "strong") {
    Out = ConsistencyModel::Strong;
    return true;
  }
  return false;
}

/// Writes \p Doc to \p Path ("-" for stdout). Returns false after a
/// diagnostic.
bool emitJson(const std::string &Path, const std::string &Doc) {
  if (Path == "-") {
    std::printf("%s\n", Doc.c_str());
    return true;
  }
  if (!writeTextFile(Path, Doc + "\n")) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

/// Prints at most \p MaxDiagnostics lines of \p Text (0 = no cap) and a
/// suppression note for the rest.
void printCapped(const std::string &Text, size_t MaxDiagnostics) {
  if (MaxDiagnostics == 0) {
    std::printf("%s", Text.c_str());
    return;
  }
  size_t Printed = 0, Pos = 0, Total = 0;
  for (size_t I = 0; I != Text.size(); ++I)
    if (Text[I] == '\n')
      ++Total;
  while (Pos < Text.size() && Printed < MaxDiagnostics) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size() - 1;
    std::fwrite(Text.data() + Pos, 1, End - Pos + 1, stdout);
    Pos = End + 1;
    ++Printed;
  }
  if (Pos < Text.size())
    std::printf("  (suppressed %zu of %zu diagnostic lines; raise "
                "--max-diagnostics)\n",
                Total - Printed, Total);
}

/// Folds one point's verdicts into a severity-class exit code.
int exitCodeFor(const LintReport &Report, bool Disagreement) {
  if (Disagreement)
    return ExitDisagreement;
  if (Report.errorCount() != 0)
    return ExitErrors;
  if (Report.warningCount() != 0)
    return ExitWarnings;
  return ExitClean;
}

int lintAll(unsigned Jobs, ConsistencyModel Model,
            const std::string &JsonPath) {
  SweepLintSummary Summary = lintSweep(shippedDesignSpace(), Jobs, Model);
  std::printf("%s", Summary.render().c_str());
  if (!JsonPath.empty()) {
    std::vector<LintJsonPoint> Points;
    for (const SweepLintResult &R : Summary.Results) {
      LintJsonPoint Point;
      Point.System = R.System;
      Point.Kernels = {kernelName(R.Kernel)};
      Point.Report = R.Report;
      Point.DynamicallyRaceFree = R.DynamicallyRaceFree;
      Point.Disagreement = R.disagreement();
      Points.push_back(std::move(Point));
    }
    if (!emitJson(JsonPath, writeLintJson(Points, Model)))
      return ExitUsage;
  }
  if (Summary.disagreements() != 0)
    return ExitDisagreement;
  if (Summary.pointsWithErrors() != 0)
    return ExitErrors;
  return Summary.pointsWithWarnings() != 0 ? ExitWarnings : ExitClean;
}

int lintPoint(const SystemConfig &Config, KernelId Kernel, bool Dot,
              ConsistencyModel Model, const std::string &JsonPath,
              size_t MaxDiagnostics) {
  LoweredProgram Program = lowerKernel(Kernel, Config);
  if (Dot) {
    HbGraph Graph = HbGraph::build(Program, Config);
    std::printf("%s", Graph.renderDot(Program).c_str());
    return ExitClean;
  }
  LintReport Report = lintProgram(Program, Config);
  bool RaceFree = validateRaceFree(Program, Model);
  bool Disagreement = Report.errorCount() == 0 && !RaceFree;
  std::printf("%s / %s: %u error(s), %u warning(s); dynamic replay %s\n",
              Config.Name.c_str(), kernelName(Kernel), Report.errorCount(),
              Report.warningCount(), RaceFree ? "race-free" : "RACY");
  printCapped(renderReport(Report, Program), MaxDiagnostics);
  if (Disagreement)
    std::printf("disagreement: static-clean but dynamically racy under "
                "%s consistency\n",
                consistencyModelName(Model));
  if (!JsonPath.empty()) {
    LintJsonPoint Point;
    Point.System = Config.Name;
    Point.Kernels = {kernelName(Kernel)};
    Point.Report = Report;
    Point.DynamicallyRaceFree = RaceFree;
    Point.Disagreement = Disagreement;
    if (!emitJson(JsonPath, writeLintJson({Point}, Model)))
      return ExitUsage;
  }
  return exitCodeFor(Report, Disagreement);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string System;
  std::string Kernel;
  std::string ModelName = "weak";
  std::string JsonPath;
  ConfigStore Overrides;
  unsigned Jobs = 0;
  size_t MaxDiagnostics = 0;
  bool Dot = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto TakeValue = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        return false;
      }
      Out = Argv[++I];
      return true;
    };
    std::string Value;
    if (Arg == "--all") {
      // The default mode; accepted for explicitness.
    } else if (Arg == "--system") {
      if (!TakeValue(System))
        return usage();
    } else if (Arg == "--kernel") {
      if (!TakeValue(Kernel))
        return usage();
    } else if (Arg == "--model") {
      if (!TakeValue(ModelName))
        return usage();
    } else if (Arg == "--json") {
      if (!TakeValue(JsonPath))
        return usage();
    } else if (Arg == "--jobs" || Arg == "--max-diagnostics") {
      // Counts take the whole value as an unsigned integer (base 0, as
      // config values do); "12x", "-1" or "banana" exit 2 naming the flag.
      if (!TakeValue(Value))
        return usage();
      uint64_t N = 0;
      if (!parseUnsigned(Value, N) ||
          (Arg == "--jobs" && N > std::numeric_limits<unsigned>::max())) {
        std::fprintf(stderr,
                     "error: %s has value '%s', which is not a valid "
                     "unsigned integer\n",
                     Arg.c_str(), Value.c_str());
        return ExitUsage;
      }
      if (Arg == "--jobs")
        Jobs = unsigned(N); // 0 keeps the default job count.
      else
        MaxDiagnostics = size_t(N);
    } else if (Arg == "--dot") {
      Dot = true;
    } else if (Arg.find('=') != std::string::npos) {
      if (!Overrides.parseAssignment(Arg)) {
        std::fprintf(stderr, "error: '%s' is not a key=value assignment\n",
                     Arg.c_str());
        return usage();
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return usage();
    }
  }

  ConsistencyModel Model;
  if (!modelByName(ModelName, Model)) {
    std::fprintf(stderr, "error: unknown consistency model '%s'\n",
                 ModelName.c_str());
    return ExitUsage;
  }

  if (System.empty() != Kernel.empty())
    return usage();
  if (System.empty())
    return lintAll(Jobs, Model, JsonPath);

  SystemConfig Config;
  if (!systemByName(System, Config, Overrides)) {
    std::fprintf(stderr, "error: unknown system '%s'\n", System.c_str());
    return ExitUsage;
  }
  KernelId Id;
  if (!kernelByName(Kernel.c_str(), Id)) {
    std::fprintf(stderr, "error: unknown kernel '%s'\n", Kernel.c_str());
    return ExitUsage;
  }
  return lintPoint(Config, Id, Dot, Model, JsonPath, MaxDiagnostics);
}
