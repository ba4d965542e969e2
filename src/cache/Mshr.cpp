//===- cache/Mshr.cpp -----------------------------------------------------===//

#include "cache/Mshr.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

void MshrFile::pruneCompleted(Cycle Now) {
  EarliestDone = ~Cycle(0);
  for (size_t I = 0; I != Entries.size();) {
    if (Entries[I].second <= Now) {
      Entries[I] = Entries.back();
      Entries.pop_back();
    } else {
      EarliestDone = std::min(EarliestDone, Entries[I].second);
      ++I;
    }
  }
}

MshrDecision MshrFile::onMiss(Addr LineAddress, Cycle Now, Cycle FillDone,
                              Cycle MinReady) {
  assert(FillDone >= Now && "fill completes in the past");
  MshrDecision Decision;
  prune(Now);

  for (const auto &KV : Entries) {
    if (KV.first != LineAddress)
      continue;
    ++Merged;
    Decision.Merged = true;
    // The merged access still pays its own pre-miss latency (a TLB
    // walk): the in-flight fill supplies the data, not a time machine.
    Decision.ReadyCycle = std::max(KV.second, MinReady);
    return Decision;
  }

  Cycle IssueCycle = Now;
  if (Entries.size() >= Capacity) {
    // Stall until the earliest in-flight fill retires its entry.
    Cycle Earliest = FillDone;
    for (const auto &KV : Entries)
      Earliest = std::min(Earliest, KV.second);
    ++FullStalls;
    Decision.StallCycles = Earliest > Now ? Earliest - Now : 0;
    IssueCycle = Earliest;
    prune(IssueCycle);
  }

  Cycle Done = FillDone + Decision.StallCycles;
  Entries.emplace_back(LineAddress, Done);
  EarliestDone = std::min(EarliestDone, Done);
  Decision.ReadyCycle = Done;
  return Decision;
}
