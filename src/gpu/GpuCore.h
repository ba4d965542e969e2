//===- gpu/GpuCore.h - In-order SIMD GPU timing model -----------*- C++ -*-===//
///
/// \file
/// The 1.5GHz in-order 8-wide SIMD GPU core of Table II. One trace record
/// is one warp instruction. Issue is in order with scoreboarded operands
/// (independent instructions overlap outstanding loads); there is no
/// branch predictor — the core stalls on every branch (Table II: "stall on
/// branch"); warp memory accesses are coalesced into line transactions;
/// SmemLoad/SmemStore use the 16KB software-managed cache.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_GPU_GPUCORE_H
#define HETSIM_GPU_GPUCORE_H

#include "cpu/CpuCore.h" // SegmentResult.
#include "trace/TraceBuffer.h"

namespace hetsim {

class MemorySystem;

/// GPU core parameters (Fermi-SM-like defaults).
struct GpuConfig {
  unsigned IssueWidth = 1;    ///< Warp instructions per cycle.
  Cycle BranchStall = 8;      ///< Pipeline drain on every branch.
  /// Divergence: a data-dependent branch (one with a condition register)
  /// is assumed to split the warp, which then executes both paths —
  /// multiplying the branch's stall by this factor. Loop branches (no
  /// condition register in our traces) never diverge.
  unsigned DivergentBranchFactor = 2;
  unsigned MaxPendingLoads = 64; ///< Scoreboard depth for memory overlap.
  /// Resident warp contexts. The trace is striped across contexts in
  /// chunks (a zero-overhead warp scheduler): one warp's load latency is
  /// hidden by issuing from the others, which is how real GPUs tolerate
  /// memory latency.
  unsigned NumWarps = 16;
  /// Consecutive records assigned to one warp before rotating. Chunks are
  /// larger than a loop iteration so intra-iteration register dependences
  /// stay within one warp's register file.
  unsigned WarpChunkRecords = 32;
};

/// The in-order SIMD core.
class GpuCore {
public:
  GpuCore(const GpuConfig &Config, MemorySystem &Mem);

  /// Runs \p Count warp instructions from \p Records starting at GPU
  /// cycle \p StartCycle (sliced interleaved execution runs a trace in
  /// such spans).
  SegmentResult run(const TraceRecord *Records, size_t Count,
                    Cycle StartCycle);

  /// Runs a shared trace handle, expanding its block window by window
  /// (DESIGN.md §8).
  SegmentResult run(const SharedTrace &Trace, Cycle StartCycle);

  const GpuConfig &config() const { return Config; }

private:
  GpuConfig Config;
  MemorySystem &Mem;
};

} // namespace hetsim

#endif // HETSIM_GPU_GPUCORE_H
