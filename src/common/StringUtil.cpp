//===- common/StringUtil.cpp ----------------------------------------------===//

#include "common/StringUtil.h"

#include <cstdio>

using namespace hetsim;

std::vector<std::string> hetsim::splitString(const std::string &Text,
                                             char Sep) {
  std::vector<std::string> Result;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string::npos) {
      Result.push_back(Text.substr(Start));
      return Result;
    }
    Result.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string hetsim::trim(const std::string &Text) {
  const char *Whitespace = " \t\r\n";
  size_t Begin = Text.find_first_not_of(Whitespace);
  if (Begin == std::string::npos)
    return "";
  size_t End = Text.find_last_not_of(Whitespace);
  return Text.substr(Begin, End - Begin + 1);
}

std::string hetsim::formatDouble(double Value, int Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return Buffer;
}

std::string hetsim::formatPercent(double Fraction, int Precision) {
  return formatDouble(Fraction * 100.0, Precision) + "%";
}

std::string hetsim::formatBytes(uint64_t Bytes) {
  if (Bytes >= (1ull << 30) && Bytes % (1ull << 30) == 0)
    return std::to_string(Bytes >> 30) + "GB";
  if (Bytes >= (1ull << 20) && Bytes % (1ull << 20) == 0)
    return std::to_string(Bytes >> 20) + "MB";
  if (Bytes >= (1ull << 10) && Bytes % (1ull << 10) == 0)
    return std::to_string(Bytes >> 10) + "KB";
  return std::to_string(Bytes) + "B";
}

std::string hetsim::formatCount(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  std::string Result;
  unsigned Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Result.push_back(',');
    Result.push_back(*It);
    ++Count;
  }
  return std::string(Result.rbegin(), Result.rend());
}
