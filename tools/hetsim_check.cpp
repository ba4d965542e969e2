//===- tools/hetsim_check.cpp - Paper-fidelity regression gate ------------===//
///
/// \file
/// The regression-check CLI over `refs/` (see check/Golden.h for the
/// directory layout):
///
///   hetsim_check diff [--out DIR] [--refs DIR] [--report FILE]
///       byte-for-byte comparison of every manifest artifact with its
///       golden; one report line per differing artifact, naming its first
///       differing line, nonzero exit on any difference
///   hetsim_check fidelity [--out DIR] [--refs DIR] [--report FILE]
///       paper-expected values and trends (loose bands) over the CSV
///       artifacts
///   hetsim_check bless [--out DIR] [--refs DIR]
///       copy the current artifacts over the goldens after an intended
///       change (commit the refs/ diff alongside the change)
///   hetsim_check determinism [--jobs N] [--kernel NAME]
///       run the design-space sweep serially and with N workers and
///       byte-compare the rendered table and sweep metrics document
///
/// A command given a flag it does not take is a usage error.
///
/// Exit status: 0 clean, 1 violations, 2 usage error (named on stderr
/// before the usage) or unreadable refs — so `scripts/ci.sh` gate 5 can
/// gate on it directly.
///
//===----------------------------------------------------------------------===//

#include "check/Fidelity.h"
#include "check/Golden.h"
#include "common/Config.h"
#include "obs/Json.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace hetsim;

namespace {

constexpr int ExitUsage = 2;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hetsim_check diff [--out DIR] [--refs DIR] "
               "[--report FILE]\n"
               "  hetsim_check fidelity [--out DIR] [--refs DIR] "
               "[--report FILE]\n"
               "  hetsim_check bless [--out DIR] [--refs DIR]\n"
               "  hetsim_check determinism [--jobs N] [--kernel NAME]\n");
  return ExitUsage;
}

struct Options {
  CheckPaths Paths;
  std::string ReportPath;
  std::vector<KernelId> Kernels = allKernels();
  unsigned Jobs = 8;
};

/// A command: its handler and the flags it takes.
struct Command {
  const char *Name;
  int (*Run)(const Options &);
  std::vector<std::string> Flags;
};

/// Parses the flags after \p Cmd; false after naming the bad one.
bool parseOptions(int Argc, char **Argv, const Command &Cmd, Options &Opts) {
  static const std::vector<std::string> AllFlags = {
      "--out", "--refs", "--report", "--kernel", "--jobs"};
  auto Has = [](const std::vector<std::string> &Flags, const std::string &F) {
    return std::find(Flags.begin(), Flags.end(), F) != Flags.end();
  };
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (!Has(AllFlags, Arg)) {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      return false;
    }
    if (!Has(Cmd.Flags, Arg)) {
      std::fprintf(stderr, "error: hetsim_check %s does not take %s\n",
                   Cmd.Name, Arg.c_str());
      return false;
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
      return false;
    }
    std::string Value = Argv[++I];
    if (Arg == "--out") {
      Opts.Paths.OutDir = Value;
    } else if (Arg == "--refs") {
      Opts.Paths.RefsDir = Value;
    } else if (Arg == "--report") {
      Opts.ReportPath = Value;
    } else if (Arg == "--kernel") {
      KernelId Kernel;
      if (!kernelByName(Value.c_str(), Kernel)) {
        std::fprintf(stderr, "error: unknown kernel '%s'\n", Value.c_str());
        return false;
      }
      Opts.Kernels = {Kernel};
    } else {
      uint64_t Jobs = 0;
      if (!parseUnsigned(Value, Jobs) || Jobs == 0 || Jobs > 1024) {
        std::fprintf(stderr,
                     "error: --jobs has value '%s', which is not a valid "
                     "job count (1 to 1024)\n",
                     Value.c_str());
        return false;
      }
      Opts.Jobs = static_cast<unsigned>(Jobs);
    }
  }
  return true;
}

/// Prints (and optionally writes) a report; returns the exit code.
int finishReport(const DiffReport &Report, const std::string &Title,
                 const char *Items, const std::string &ReportPath) {
  std::string Text = Report.render(Title, Items);
  std::fputs(Text.c_str(), stdout);
  if (!ReportPath.empty() && !writeTextFile(ReportPath, Text))
    std::fprintf(stderr, "warning: cannot write report to %s\n",
                 ReportPath.c_str());
  return Report.ok() ? 0 : 1;
}

int cmdDiff(const Options &Opts) {
  std::string Error;
  std::vector<std::string> Names;
  if (!loadManifest(Opts.Paths.manifestPath(), Names, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsage;
  }
  return finishReport(diffGoldens(Opts.Paths, Names), "hetsim_check diff",
                      "lines", Opts.ReportPath);
}

int cmdFidelity(const Options &Opts) {
  std::string Error;
  FidelitySet Set;
  if (!FidelitySet::loadFile(Opts.Paths.fidelityPath(), Set, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsage;
  }
  return finishReport(evaluateFidelity(Set, Opts.Paths.OutDir),
                      "hetsim_check fidelity", "values", Opts.ReportPath);
}

int cmdBless(const Options &Opts) {
  std::string Error;
  std::vector<std::string> Names;
  if (!loadManifest(Opts.Paths.manifestPath(), Names, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsage;
  }
  if (!blessGoldens(Opts.Paths, Names, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("blessed %zu artifacts: %s -> %s/golden\n", Names.size(),
              Opts.Paths.OutDir.c_str(), Opts.Paths.RefsDir.c_str());
  return 0;
}

int cmdDeterminism(const Options &Opts) {
  DeterminismOutcome Outcome = checkSweepDeterminism(Opts.Jobs, Opts.Kernels);
  std::printf("determinism: %s\n%s\n", Outcome.Ok ? "ok" : "FAIL",
              Outcome.Detail.c_str());
  return Outcome.Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  static const Command Commands[] = {
      {"diff", cmdDiff, {"--out", "--refs", "--report"}},
      {"fidelity", cmdFidelity, {"--out", "--refs", "--report"}},
      {"bless", cmdBless, {"--out", "--refs"}},
      {"determinism", cmdDeterminism, {"--jobs", "--kernel"}},
  };
  const std::string Name = Argv[1];
  for (const Command &Cmd : Commands) {
    if (Name != Cmd.Name)
      continue;
    Options Opts;
    if (!parseOptions(Argc, Argv, Cmd, Opts))
      return usage();
    return Cmd.Run(Opts);
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", Name.c_str());
  return usage();
}
