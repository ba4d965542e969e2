//===- common/Config.cpp --------------------------------------------------===//

#include "common/Config.h"

#include "common/StringUtil.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace hetsim;

void ConfigStore::set(const std::string &Key, const std::string &Value) {
  assert(!Key.empty() && "config keys must be non-empty");
  Entries[Key] = Value;
}

void ConfigStore::setInt(const std::string &Key, int64_t Value) {
  set(Key, std::to_string(Value));
}

void ConfigStore::setBool(const std::string &Key, bool Value) {
  set(Key, Value ? "true" : "false");
}

std::string ConfigStore::getString(const std::string &Key,
                                   const std::string &Default) const {
  auto It = Entries.find(Key);
  return It == Entries.end() ? Default : It->second;
}

void hetsim::rejectConfigValue(const std::string &Key,
                               const std::string &Value, const char *Type) {
  std::fprintf(stderr,
               "error: config key '%s' has value '%s', which is not a valid "
               "%s\n",
               Key.c_str(), Value.c_str(), Type);
  std::exit(2);
}

// The integer parser takes the whole value or rejects it: a trailing
// suffix ("12x"), an empty value or an out-of-range number fails. Base 0
// keeps hex ("0x40") and octal literals.

bool hetsim::parseUnsigned(const std::string &Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  // strtoull would wrap "-5" to 2^64 - 5, so no sign is accepted.
  unsigned long long N = std::strtoull(Text.c_str(), &End, 0);
  if (Text.empty() || Text[0] == '-' || Text[0] == '+' || *End != '\0' ||
      errno == ERANGE)
    return false;
  Out = N;
  return true;
}

uint64_t ConfigStore::getUInt(const std::string &Key,
                              uint64_t Default) const {
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return Default;
  uint64_t N = 0;
  if (!parseUnsigned(It->second, N))
    rejectConfigValue(Key, It->second, "unsigned integer");
  return N;
}

double ConfigStore::getDouble(const std::string &Key, double Default) const {
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return Default;
  const std::string &V = It->second;
  char *End = nullptr;
  double D = std::strtod(V.c_str(), &End);
  if (V.empty() || *End != '\0')
    rejectConfigValue(Key, V, "number");
  return D;
}

bool ConfigStore::getBool(const std::string &Key, bool Default) const {
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return Default;
  const std::string &V = It->second;
  if (V == "1" || V == "true" || V == "yes" || V == "on")
    return true;
  if (V == "0" || V == "false" || V == "no" || V == "off")
    return false;
  rejectConfigValue(Key, V, "boolean (1/0/true/false/yes/no/on/off)");
}

bool ConfigStore::parseAssignment(const std::string &Text) {
  std::string Trimmed = trim(Text);
  size_t Eq = Trimmed.find('=');
  if (Eq == std::string::npos || Eq == 0)
    return false;
  std::string Key = trim(Trimmed.substr(0, Eq));
  std::string Value = trim(Trimmed.substr(Eq + 1));
  if (Key.empty())
    return false;
  set(Key, Value);
  return true;
}

unsigned ConfigStore::parseLines(const std::string &Text,
                                 const std::string &Source) {
  unsigned Applied = 0;
  unsigned LineNo = 0;
  for (const std::string &Line : splitString(Text, '\n')) {
    ++LineNo;
    std::string Stripped = trim(Line.substr(0, Line.find('#')));
    if (Stripped.empty())
      continue;
    if (!parseAssignment(Stripped)) {
      std::fprintf(stderr,
                   "error: %s:%u: '%s' is not a key=value assignment\n",
                   Source.c_str(), LineNo, Stripped.c_str());
      std::exit(2);
    }
    ++Applied;
  }
  return Applied;
}

bool ConfigStore::loadFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  std::string Text;
  char Buffer[4096];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Read);
  std::fclose(File);
  parseLines(Text, Path);
  return true;
}

std::vector<std::string> ConfigStore::keys() const {
  std::vector<std::string> Result;
  Result.reserve(Entries.size());
  for (const auto &KV : Entries)
    Result.push_back(KV.first);
  return Result;
}
