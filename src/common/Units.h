//===- common/Units.h - Clock domains and time conversion -------*- C++ -*-===//
///
/// \file
/// Clock-domain definitions for the baseline system (Table II): a 3.5GHz
/// CPU, a 1.5GHz GPU, and an uncore (L3, ring, DRAM controller front end)
/// clocked with the CPU. Cross-domain latency arithmetic converts through
/// nanoseconds, or in integers where that provably gives the same cycles.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_UNITS_H
#define HETSIM_COMMON_UNITS_H

#include "common/Error.h"
#include "common/Types.h"

namespace hetsim {

/// CPU core frequency in Hz (Table II: 3.5GHz out-of-order).
inline constexpr double CpuFreqHz = 3.5e9;

/// GPU core frequency in Hz (Table II: 1.5GHz in-order 8-wide SIMD).
inline constexpr double GpuFreqHz = 1.5e9;

/// PCI-E 2.0 transfer rate used by the api-pci model (Table IV: 16GB/s).
inline constexpr double PciE2BytesPerSec = 16.0e9;

/// DDR3-1333 aggregate bandwidth (Table II: 41.6GB/s over 4 controllers).
inline constexpr double DramBytesPerSec = 41.6e9;

/// Returns the frequency of \p Pu in Hz.
inline constexpr double puFreqHz(PuKind Pu) {
  return Pu == PuKind::Cpu ? CpuFreqHz : GpuFreqHz;
}

/// Converts \p Cycles in the clock of \p Pu to nanoseconds.
inline constexpr double cyclesToNs(PuKind Pu, Cycle Cycles) {
  return double(Cycles) * 1e9 / puFreqHz(Pu);
}

/// Converts \p Ns nanoseconds to (rounded-up) cycles of \p Pu.
inline constexpr Cycle nsToCycles(PuKind Pu, double Ns) {
  double Cycles = Ns * puFreqHz(Pu) / 1e9;
  Cycle Floor = static_cast<Cycle>(Cycles);
  return Cycles > double(Floor) ? Floor + 1 : Floor;
}

/// ceil(\p Cycles * Num / Den) for the clock ratio Num/Den from \p From
/// to \p To, exactly as nsToCycles(To, cyclesToNs(From, Cycles)) rounds
/// it. The integer form is taken only where it provably equals the float
/// path:
///  - Cycles not a multiple of Den and below 2^40: the exact quotient lies
///    at least 1/7 from an integer, and the float path's four correctly
///    rounded steps err by under 10^-2 on a result below 2^42;
///  - Cycles a multiple of Den and below 2^21: every float step is exact.
/// Elsewhere it keeps the float expression. Num and Den are template
/// arguments so both divisions are by constants.
template <Cycle Num, Cycle Den>
inline constexpr Cycle convertCyclesByRatio(PuKind From, PuKind To,
                                            Cycle Cycles) {
  const bool Multiple = Cycles % Den == 0;
  if (Multiple ? Cycles < (Cycle(1) << 21) : Cycles < (Cycle(1) << 40))
    return (Cycles * Num + Den - 1) / Den;
  return nsToCycles(To, cyclesToNs(From, Cycles));
}

/// Converts cycles between PU clock domains, rounding up: the value of
/// converting through nanoseconds, in integers where that is provably the
/// same (see convertCyclesByRatio).
inline constexpr Cycle convertCycles(PuKind From, PuKind To, Cycle Cycles) {
  static_assert(CpuFreqHz == 3.5e9 && GpuFreqHz == 1.5e9,
                "the integer conversion assumes the 7:3 clock ratio");
  if (From == To)
    return Cycles;
  return From == PuKind::Gpu ? convertCyclesByRatio<7, 3>(From, To, Cycles)
                             : convertCyclesByRatio<3, 7>(From, To, Cycles);
}

/// The cycles, as a double, a transfer of \p Bytes occupies at
/// \p BytesPerSec in the clock domain of \p Pu.
inline constexpr double transferCyclesUnrounded(PuKind Pu, uint64_t Bytes,
                                                double BytesPerSec) {
  return double(Bytes) / BytesPerSec * puFreqHz(Pu);
}

/// True when a transfer of \p Bytes at \p BytesPerSec takes a cycle count
/// a Cycle can hold. SystemConfig rejects a rate at which a transfer of a
/// whole device would not.
inline constexpr bool transferCyclesFit(PuKind Pu, uint64_t Bytes,
                                        double BytesPerSec) {
  const double Cycles = transferCyclesUnrounded(Pu, Bytes, BytesPerSec);
  // 2^64 as a double: the least value that does not fit in a Cycle.
  return Cycles >= 0.0 && Cycles < 18446744073709551616.0;
}

/// Cycles a transfer of \p Bytes occupies at \p BytesPerSec, in the clock
/// domain of \p Pu, rounded up. A count that a Cycle cannot hold (a rate
/// so small, or not positive, that the transfer never ends) is fatal:
/// casting it would be undefined behaviour.
inline constexpr Cycle transferCycles(PuKind Pu, uint64_t Bytes,
                                      double BytesPerSec) {
  if (!transferCyclesFit(Pu, Bytes, BytesPerSec))
    fatalError("transfer cycles overflow a cycle count: the transfer rate "
               "is too small or not positive");
  double Cycles = transferCyclesUnrounded(Pu, Bytes, BytesPerSec);
  Cycle Floor = static_cast<Cycle>(Cycles);
  return Cycles > double(Floor) ? Floor + 1 : Floor;
}

} // namespace hetsim

#endif // HETSIM_COMMON_UNITS_H
