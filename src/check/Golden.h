//===- check/Golden.h - Golden refs, blessing, determinism ------*- C++ -*-===//
///
/// \file
/// The driver layer of the check subsystem, shared by the `hetsim_check`
/// CLI and the tests. The `refs/` directory is laid out as:
///
///   refs/MANIFEST           one artifact name per line ('#' comments)
///   refs/golden/<name>      blessed copy of each manifest artifact
///   refs/paper/fidelity.cfg paper-expected values and trends
///
/// `diffGoldens` compares each manifest artifact in the candidate output
/// directory with its golden byte for byte. `blessGoldens` copies the
/// candidate artifacts over the goldens after an intended change.
/// `checkSweepDeterminism` runs the same design-space sweep serially and
/// with N workers and byte-compares both the rendered table and the
/// `hetsim-sweep-metrics-v1` document, enforcing the sweep engine's
/// job-count-invariance contract.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CHECK_GOLDEN_H
#define HETSIM_CHECK_GOLDEN_H

#include "check/Compare.h"
#include "trace/Kernel.h"

#include <string>
#include <vector>

namespace hetsim {

/// Where a check run reads from.
struct CheckPaths {
  std::string OutDir = "out";   ///< Candidate artifacts.
  std::string RefsDir = "refs"; ///< Reference tree (layout above).

  std::string manifestPath() const { return RefsDir + "/MANIFEST"; }
  std::string goldenPath(const std::string &Name) const {
    return RefsDir + "/golden/" + Name;
  }
  std::string fidelityPath() const {
    return RefsDir + "/paper/fidelity.cfg";
  }
};

/// Reads a manifest: one artifact name per line, '#' comments. Returns
/// false and sets \p Error when unreadable or empty.
bool loadManifest(const std::string &Path, std::vector<std::string> &Names,
                  std::string &Error);

/// Compares every manifest artifact in \p Paths.OutDir with its golden
/// byte for byte: one MissingDoc entry per unreadable golden or
/// candidate, one ByteMismatch entry per differing artifact, in manifest
/// order.
DiffReport diffGoldens(const CheckPaths &Paths,
                       const std::vector<std::string> &Names);

/// Copies every manifest artifact from \p Paths.OutDir over its golden,
/// creating `refs/golden/` as needed. Returns false and sets \p Error on
/// the first artifact that cannot be read or written.
bool blessGoldens(const CheckPaths &Paths,
                  const std::vector<std::string> &Names, std::string &Error);

/// Outcome of a determinism probe.
struct DeterminismOutcome {
  bool Ok = false;
  uint64_t Points = 0;   ///< Sweep points per run.
  unsigned Jobs = 0;     ///< Worker count of the parallel run.
  std::string Detail;    ///< First divergence, or a summary when Ok.
};

/// Runs the full design-space sweep (all case-study systems plus all
/// address-space options, times every kernel of \p Kernels) once
/// serially and once with \p Jobs workers, and byte-compares the
/// rendered Figure-5-style table and the sweep metrics document. \p Jobs
/// of 0 or 1 is promoted to 2 so the probe is real.
DeterminismOutcome checkSweepDeterminism(unsigned Jobs,
                                         const std::vector<KernelId> &Kernels);

} // namespace hetsim

#endif // HETSIM_CHECK_GOLDEN_H
