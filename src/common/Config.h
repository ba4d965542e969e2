//===- common/Config.h - Key/value configuration store ----------*- C++ -*-===//
///
/// \file
/// A typed key=value configuration store. Experiment harnesses and system
/// configurations read tunables (latencies, sizes, widths) through this so
/// sweeps can override any parameter by name.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_CONFIG_H
#define HETSIM_COMMON_CONFIG_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetsim {

/// An ordered key=value store with typed accessors.
///
/// Keys are dotted lowercase strings such as "cpu.rob_entries" or
/// "comm.api_pci_base". Lookups fall back to their default for a missing
/// key and reject a present value that is not of the requested type (see
/// rejectConfigValue()). The store itself accepts any key; the set of
/// keys a simulator reads is SystemConfig's key table.
class ConfigStore {
public:
  /// Sets \p Key to the string representation of a value.
  void set(const std::string &Key, const std::string &Value);
  void setInt(const std::string &Key, int64_t Value);
  void setBool(const std::string &Key, bool Value);

  /// Typed getters with a default for missing keys. Unsigned integers
  /// parse in base 0 (so "0x40" is 64), take no sign and must use the
  /// whole value; booleans are 1/0/true/false/yes/no/on/off.
  std::string getString(const std::string &Key,
                        const std::string &Default) const;
  uint64_t getUInt(const std::string &Key, uint64_t Default) const;
  double getDouble(const std::string &Key, double Default) const;
  bool getBool(const std::string &Key, bool Default) const;

  /// Parses a single "key=value" assignment; returns false on malformed
  /// input (no '=' or empty key).
  bool parseAssignment(const std::string &Text);

  /// Parses newline-separated assignments; '#' starts a comment. A line
  /// that is neither blank, a comment nor an assignment is bad input: it
  /// prints "error: <Source>:<line>: ..." and exits with status 2. Returns
  /// the number of assignments applied.
  unsigned parseLines(const std::string &Text, const std::string &Source);

  /// Loads assignments from a file (same syntax as parseLines, with the
  /// path as the Source). Returns false if the file cannot be read.
  bool loadFile(const std::string &Path);

  /// Returns all keys in sorted order (useful for dumping configurations).
  std::vector<std::string> keys() const;

  /// Number of entries.
  size_t size() const { return Entries.size(); }

private:
  std::map<std::string, std::string> Entries;
};

/// Prints "error: config key '<Key>' has value '<Value>', which is not a
/// valid <Type>" to stderr and exits with status 2: bad user input, not
/// a simulator fault.
[[noreturn]] void rejectConfigValue(const std::string &Key,
                                    const std::string &Value,
                                    const char *Type);

/// Parses all of \p Text as an unsigned integer in base 0 ("0x40" is 64):
/// no sign, no trailing characters, no overflow. Returns false otherwise.
bool parseUnsigned(const std::string &Text, uint64_t &Out);

} // namespace hetsim

#endif // HETSIM_COMMON_CONFIG_H
