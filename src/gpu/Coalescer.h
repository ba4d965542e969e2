//===- gpu/Coalescer.h - SIMD memory coalescing -----------------*- C++ -*-===//
///
/// \file
/// Coalesces a warp memory instruction's per-lane addresses into the set of
/// distinct cache lines it touches. Unit-stride word accesses coalesce into
/// one or two line transactions; scattered accesses fan out to one per
/// lane, which is the main GPU memory-efficiency effect the model needs.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_GPU_COALESCER_H
#define HETSIM_GPU_COALESCER_H

#include "trace/TraceRecord.h"

#include <vector>

namespace hetsim {

/// Fills \p Lines with the distinct cache-line base addresses touched by a
/// warp memory instruction (sorted ascending). The vector is cleared first;
/// passing the same vector across calls reuses its capacity, so the warp
/// issue loop performs no per-record allocation.
void coalesceWarpAccess(const TraceRecord &Record, std::vector<Addr> &Lines);

} // namespace hetsim

#endif // HETSIM_GPU_COALESCER_H
