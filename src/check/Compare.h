//===- check/Compare.h - Byte diffs and violation reports -------*- C++ -*-===//
///
/// \file
/// The report side of the check subsystem. A golden diff compares each
/// artifact with its golden byte for byte (`compareBytes`): the simulator
/// is deterministic, so any difference at all is a changed result, and
/// the report names the first differing line and how many lines differ.
/// Paper-fidelity checks (check/Fidelity.h) report into the same
/// DiffReport, one numbered line per violation.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CHECK_COMPARE_H
#define HETSIM_CHECK_COMPARE_H

#include <cstdint>
#include <string>
#include <vector>

namespace hetsim {

/// One fidelity band. A value passes when |Actual - Reference| is within
/// max(Abs, Rel * |Reference|); boundary values pass (<=, not <).
struct Tolerance {
  double Abs = 0;
  double Rel = 0;

  bool accepts(double Reference, double Actual) const;
};

enum class DiffKind : uint8_t {
  MissingDoc,    ///< Golden or candidate artifact unreadable.
  ParseError,    ///< CSV artifact malformed (fidelity).
  ByteMismatch,  ///< Candidate differs from its golden.
  MissingRow,    ///< No row matches a fidelity selector.
  MissingField,  ///< Selected row lacks the numeric field.
  FidelityValue, ///< Paper-expected value check failed.
  FidelityTrend, ///< Paper-expected ordering check failed.
};

const char *diffKindName(DiffKind Kind);

/// One violation.
struct DiffEntry {
  DiffKind Kind = DiffKind::MissingDoc;
  std::string Doc;
  std::string Row;
  std::string Field;
  double Reference = 0;
  double Actual = 0;
  double AbsDelta = 0;
  double RelDelta = 0; ///< AbsDelta / |Reference| (AbsDelta when ref is 0).
  Tolerance Allowed;
  std::string Detail;

  /// One human-readable report line (no trailing newline).
  std::string describe() const;
};

/// The outcome of one diff (or fidelity) run.
struct DiffReport {
  std::vector<DiffEntry> Entries;
  uint64_t DocsCompared = 0;
  uint64_t ItemsCompared = 0; ///< Lines (diff) or values (fidelity).

  bool ok() const { return Entries.empty(); }

  /// Renders a summary line counting docs and \p Items, then "ok" or one
  /// numbered line per violation ("  1. <kind> <doc> ...").
  std::string render(const std::string &Title, const char *Items) const;
};

/// Compares \p Actual with \p Reference byte for byte. Returns true when
/// they are identical; otherwise fills \p Entry with a ByteMismatch for
/// \p Doc naming the first differing line (a missing final newline
/// counts) and how many lines differ.
bool compareBytes(const std::string &Doc, const std::string &Reference,
                  const std::string &Actual, DiffEntry &Entry);

} // namespace hetsim

#endif // HETSIM_CHECK_COMPARE_H
