//===- memory/MemFast.h - Memory fidelity tier selection --------*- C++ -*-===//
///
/// \file
/// Selects the memory model's fidelity tier from HETSIM_MEMFAST
/// (DESIGN.md §11):
///
///   unset or 0 — the detailed walk for every access (the default, and
///     the only tier the goldens use).
///   sampled — windowed time-sampling of generator blocks with a reported
///     error bound (CpuCore/GpuCore::runSampled).
///
/// Any other value is rejected at startup.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_MEMFAST_H
#define HETSIM_MEMORY_MEMFAST_H

#include <cstdint>

namespace hetsim {

/// Fidelity tier of the memory model.
enum class MemFastMode : uint8_t {
  Off = 0,     ///< Detailed per-access simulation.
  Sampled = 1, ///< Windowed time-sampling with reported error bounds.
};

/// Resolves HETSIM_MEMFAST: unset, empty or "0" is Off, "sampled" is
/// Sampled. Any other value prints an error naming the variable and the
/// accepted values and exits with status 2. Tests override the result via
/// setMemFastForTesting().
MemFastMode memFastMode();

/// Test hook: forces the mode (0 = Off, 1 = Sampled), or re-reads the
/// environment (-1).
void setMemFastForTesting(int Mode);

/// Windows skipped per measured window in sampled mode
/// (HETSIM_MEMFAST_SKIP, default 30).
unsigned memFastSampleSkip();

} // namespace hetsim

#endif // HETSIM_MEMORY_MEMFAST_H
