//===- comm/CommParams.cpp ------------------------------------------------===//

#include "comm/CommParams.h"

#include "common/Units.h"

using namespace hetsim;

Cycle CommParams::pciCopyCycles(uint64_t Bytes) const {
  if (PinnedHostMemory)
    return ApiPciBase + transferCycles(PuKind::Cpu, Bytes, PciBytesPerSec);
  return ApiPciBase + PageableStagingOverhead +
         transferCycles(PuKind::Cpu, Bytes,
                        PciBytesPerSec * PageableRateFactor);
}
