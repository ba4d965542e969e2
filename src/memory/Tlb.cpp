//===- memory/Tlb.cpp -----------------------------------------------------===//

#include "memory/Tlb.h"

#include "common/Error.h"

using namespace hetsim;

Tlb::Tlb(unsigned NumEntries, unsigned NumWays, uint64_t PageSize)
    : Ways(NumWays), PageBytes(PageSize), PageShift(log2Exact(PageSize)) {
  if (NumWays == 0 || NumEntries % NumWays != 0 ||
      !isPowerOf2(NumEntries / NumWays) || !isPowerOf2(PageSize) ||
      PageSize < 2)
    fatalError("invalid TLB geometry");
  NumSets = NumEntries / NumWays;
  Vpns.assign(NumEntries, InvalidVpn);
  Frames.assign(NumEntries, 0);
  Stamps.assign(NumEntries, 0);
}

void Tlb::fill(Addr VAddr, Addr Frame) {
  ++Stats.Misses;
  const uint64_t Vpn = VAddr >> PageShift;
  const size_t SetBase = size_t(Vpn & (NumSets - 1)) * Ways;
  // Fill the LRU (or first invalid) way.
  unsigned Victim = 0;
  for (unsigned W = 0; W != Ways; ++W) {
    if (Vpns[SetBase + W] == InvalidVpn) {
      Victim = W;
      break;
    }
    if (Stamps[SetBase + W] < Stamps[SetBase + Victim])
      Victim = W;
  }
  const size_t I = SetBase + Victim;
  Vpns[I] = Vpn;
  Frames[I] = Frame;
  Stamps[I] = NextStamp++;
  Recent[1] = Recent[0];
  Recent[0] = I;
}

void Tlb::flush() { Vpns.assign(Vpns.size(), InvalidVpn); }
