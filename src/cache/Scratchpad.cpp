//===- cache/Scratchpad.cpp -----------------------------------------------===//

#include "cache/Scratchpad.h"

#include "common/Error.h"

#include <vector>

using namespace hetsim;

void Scratchpad::outOfBounds() {
  fatalError("scratchpad access out of bounds");
}

unsigned Scratchpad::conflictDegreeUncached(Addr Offset, unsigned Lanes,
                                            uint32_t StrideBytes) const {
  // Words interleave across banks; count lanes per bank. Lanes hitting
  // the SAME word broadcast (no conflict): a bank counts a lane only when
  // its word differs from the previous lane counted against that bank,
  // mirroring the per-bank lane-order scan this replaces. One pass over
  // the lanes with per-bank running state instead of a banks*lanes sweep.
  constexpr unsigned MaxStackBanks = 64;
  unsigned CountsBuf[MaxStackBanks];
  Addr SeenBuf[MaxStackBanks];
  std::vector<unsigned> CountsHeap;
  std::vector<Addr> SeenHeap;
  unsigned *Counts = CountsBuf;
  Addr *Seen = SeenBuf;
  if (NumBanks > MaxStackBanks) {
    CountsHeap.assign(NumBanks, 0);
    SeenHeap.assign(NumBanks, ~Addr(0));
    Counts = CountsHeap.data();
    Seen = SeenHeap.data();
  } else {
    for (unsigned I = 0; I != NumBanks; ++I) {
      Counts[I] = 0;
      Seen[I] = ~Addr(0);
    }
  }
  unsigned Worst = 1;
  for (unsigned Lane = 0; Lane != Lanes; ++Lane) {
    Addr Word = (Offset + Addr(Lane) * StrideBytes) / 4;
    unsigned Bank = unsigned(Word % NumBanks);
    if (Word == Seen[Bank])
      continue; // Broadcast.
    Seen[Bank] = Word;
    if (++Counts[Bank] > Worst)
      Worst = Counts[Bank];
  }
  return Worst;
}
