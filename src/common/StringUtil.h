//===- common/StringUtil.h - Small string helpers ---------------*- C++ -*-===//
///
/// \file
/// String splitting, trimming, and numeric formatting helpers used across
/// the configuration store and report printers.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_STRINGUTIL_H
#define HETSIM_COMMON_STRINGUTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace hetsim {

/// Splits \p Text on \p Sep; empty fields are preserved.
std::vector<std::string> splitString(const std::string &Text, char Sep);

/// Strips leading/trailing spaces, tabs, and CR/LF.
std::string trim(const std::string &Text);

/// Formats \p Value with \p Precision fractional digits.
std::string formatDouble(double Value, int Precision);

/// Formats \p Value as a percentage string such as "12.3%".
std::string formatPercent(double Fraction, int Precision = 1);

/// Formats a byte count with a binary suffix (e.g. "64KB", "8MB").
std::string formatBytes(uint64_t Bytes);

/// Formats a count with thousands separators ("1,234,567").
std::string formatCount(uint64_t Value);

} // namespace hetsim

#endif // HETSIM_COMMON_STRINGUTIL_H
