//===- cpu/BranchPredictor.cpp --------------------------------------------===//

#include "cpu/BranchPredictor.h"

#include "common/Error.h"

using namespace hetsim;

GsharePredictor::GsharePredictor(unsigned Bits) : TableBits(Bits) {
  if (Bits == 0 || Bits > 24)
    fatalError("gshare table size out of range");
  // Weakly taken: loops predict well immediately.
  Counters.assign(1u << Bits, 2);
}

unsigned GsharePredictor::index(Addr Pc) const {
  uint64_t Mask = (1ull << TableBits) - 1;
  return unsigned(((Pc >> 2) ^ History) & Mask);
}

bool GsharePredictor::update(Addr Pc, bool Taken) {
  unsigned Idx = index(Pc);
  bool Predicted = Counters[Idx] >= 2;
  ++Stats.Predictions;
  if (Predicted != Taken)
    ++Stats.Mispredictions;

  uint8_t &Counter = Counters[Idx];
  if (Taken && Counter < 3)
    ++Counter;
  else if (!Taken && Counter > 0)
    --Counter;

  History = ((History << 1) | (Taken ? 1 : 0)) & ((1ull << TableBits) - 1);
  return Predicted == Taken;
}
