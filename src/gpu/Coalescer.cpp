//===- gpu/Coalescer.cpp --------------------------------------------------===//

#include "gpu/Coalescer.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

void hetsim::coalesceWarpAccess(const TraceRecord &Record,
                                std::vector<Addr> &Lines) {
  assert(isGlobalMemoryOp(Record.Op) && "not a global memory op");
  Lines.clear();
  // Lanes at most a line apart each start at most one line past where the
  // previous lane's footprint ends, so together they cover one unbroken
  // run of lines (the unit-stride common case): walk it, no sort needed.
  if (Record.SimdLanes != 0 && Record.LaneStrideBytes <= CacheLineBytes) {
    Addr LastLane = Record.MemAddr + uint64_t(Record.SimdLanes - 1) *
                                         Record.LaneStrideBytes;
    Addr End = alignDown(LastLane + std::max<uint32_t>(Record.MemBytes, 1) - 1,
                         CacheLineBytes);
    for (Addr Line = alignDown(Record.MemAddr, CacheLineBytes); Line <= End;
         Line += CacheLineBytes)
      Lines.push_back(Line);
    return;
  }
  for (unsigned Lane = 0; Lane != Record.SimdLanes; ++Lane) {
    Addr LaneAddr =
        Record.MemAddr + uint64_t(Lane) * Record.LaneStrideBytes;
    // A lane access can straddle a line boundary; cover both lines.
    Addr First = alignDown(LaneAddr, CacheLineBytes);
    Addr Last = alignDown(LaneAddr + std::max<uint32_t>(Record.MemBytes, 1) - 1,
                          CacheLineBytes);
    for (Addr Line = First; Line <= Last; Line += CacheLineBytes)
      Lines.push_back(Line);
  }
  std::sort(Lines.begin(), Lines.end());
  Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
}
