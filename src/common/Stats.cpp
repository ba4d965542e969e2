//===- common/Stats.cpp ---------------------------------------------------===//

#include "common/Stats.h"

#include <bit>

using namespace hetsim;

void StatHistogram::addSample(uint64_t Value) {
  unsigned Bucket = unsigned(std::bit_width(Value));
  if (Bucket >= NumBuckets)
    Bucket = NumBuckets - 1;
  ++Buckets[Bucket];
  if (Count == 0) {
    Min = Value;
    Max = Value;
  } else {
    if (Value < Min)
      Min = Value;
    if (Value > Max)
      Max = Value;
  }
  ++Count;
  Sum += Value;
}

uint64_t StatHistogram::approxPercentile(double Fraction) const {
  if (Count == 0)
    return 0;
  uint64_t Target = uint64_t(Fraction * double(Count));
  uint64_t Seen = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen > Target)
      return B == 0 ? 0 : (1ull << B) - 1; // Upper edge of bucket B.
  }
  return Max;
}

void StatRegistry::increment(const std::string &Name, uint64_t Delta) {
  Counters[Name] += Delta;
}

uint64_t &StatRegistry::counterRef(const std::string &Name) {
  return Counters[Name];
}

StatHistogram &StatRegistry::histogramRef(const std::string &Name) {
  return Histograms[Name];
}

const StatHistogram &StatRegistry::histogram(const std::string &Name) const {
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? EmptyHistogram : It->second;
}

std::vector<std::string> StatRegistry::histogramNames() const {
  std::vector<std::string> Names;
  Names.reserve(Histograms.size());
  for (const auto &KV : Histograms)
    Names.push_back(KV.first);
  return Names;
}

void StatRegistry::bindCounter(const std::string &Name, const uint64_t &Slot) {
  Counters[Name];
  Bound[Name].push_back(&Slot);
}

uint64_t StatRegistry::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  if (It == Counters.end())
    return 0;
  uint64_t Value = It->second;
  if (auto Slots = Bound.find(Name); Slots != Bound.end())
    for (const uint64_t *Slot : Slots->second)
      Value += *Slot;
  return Value;
}

std::vector<std::string> StatRegistry::counterNames() const {
  std::vector<std::string> Names;
  Names.reserve(Counters.size());
  for (const auto &KV : Counters)
    Names.push_back(KV.first);
  return Names;
}

std::string StatRegistry::renderCounters() const {
  std::string Out;
  for (const auto &KV : Counters) {
    Out += KV.first;
    Out += " = ";
    Out += std::to_string(counter(KV.first));
    Out += '\n';
  }
  return Out;
}
