//===- trace/ComputeBlock.h - Run-length compute trace blocks ---*- C++ -*-===//
///
/// \file
/// Compact (run-length) representations of compute traces. A BlockTrace
/// describes a record stream by its *recipe* — a (generator, request)
/// pair — instead of a materialized vector of millions of TraceRecords.
/// Cores expand blocks a window at a time (a few thousand records).
///
/// Expansion is exact: BlockExpander replays the same generator code over
/// the same GenState, so the concatenation of a compute block's windows is
/// byte-identical to the single-shot buffer generateCompute would produce.
/// No production path holds a block's whole record stream: consumers that
/// need fixed-size slices read them through a TraceReader.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_COMPUTEBLOCK_H
#define HETSIM_TRACE_COMPUTEBLOCK_H

#include "trace/KernelTraceGenerator.h"

#include <chrono>
#include <optional>
#include <vector>

namespace hetsim {

/// Number of records an expansion window aims for. The reusable window
/// buffer (~96KB) does not fit a host L1; the size trades per-window
/// bookkeeping (a clock read and the emitter set-up per window) against
/// the distance between writing a record and reading it: at this size a
/// core reads what the generator just wrote from a typical host L2, and a
/// point's memory stays flat however long its trace.
constexpr size_t ComputeWindowRecords = 4096;

/// Process-wide CPU nanoseconds spent producing trace records (single-shot
/// generation and window expansion alike), summed across threads. The
/// sweep telemetry diffs this around a sweep to split wall time into
/// trace-gen vs simulate phases.
uint64_t traceGenNanos();
void addTraceGenNanos(uint64_t Nanos);

/// The calling thread's share of traceGenNanos(). Per-worker sweep
/// attribution diffs this instead of the global sum: on an oversubscribed
/// host N workers' wall-clock scopes overlap, and summing them makes
/// trace-gen appear to balloon with the job count.
uint64_t threadTraceGenNanos();

/// Adds \p Nanos to the calling thread's share alone (traceGenNanos()
/// already counts them): a point that ran part of its work on a helper
/// thread credits the helper's generation time to the thread that owns
/// the point.
void creditThreadTraceGenNanos(uint64_t Nanos);

/// RAII accumulator for traceGenNanos().
class TraceGenScope {
public:
  TraceGenScope() : Start(std::chrono::steady_clock::now()) {}
  ~TraceGenScope() {
    addTraceGenNanos(uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - Start)
                                  .count()));
  }
  TraceGenScope(const TraceGenScope &) = delete;
  TraceGenScope &operator=(const TraceGenScope &) = delete;

private:
  std::chrono::steady_clock::time_point Start;
};

/// A run-length trace handle: the recipe for a record stream. It holds no
/// records; BlockExpander and TraceReader produce them a window at a time.
/// The generator must outlive the block; the Table III kernels'
/// generators are static.
class BlockTrace {
public:
  enum class Kind : uint8_t {
    ComputeGen, ///< generateCompute(Req, Layout).
    SerialGen,  ///< beginSerial/emitSerial(InstCount, Layout, Seed).
  };

  /// A compute segment: the stream \p Gen.generateCompute(\p Request,
  /// \p Data) would produce.
  BlockTrace(const KernelTraceGenerator &Gen, const GenRequest &Request,
             const KernelDataLayout &Data);

  /// A serial segment: \p InstCount records of \p Gen's sequential
  /// (CPU-only) portion over \p Data, seeded with \p Seed.
  BlockTrace(const KernelTraceGenerator &Gen, uint64_t InstCount,
             uint64_t Seed, const KernelDataLayout &Data);

  /// The same segments of Table III kernel \p Id.
  BlockTrace(KernelId Id, const GenRequest &Request,
             const KernelDataLayout &Data)
      : BlockTrace(KernelTraceGenerator::forKernel(Id), Request, Data) {}
  BlockTrace(KernelId Id, uint64_t InstCount, uint64_t Seed,
             const KernelDataLayout &Data)
      : BlockTrace(KernelTraceGenerator::forKernel(Id), InstCount, Seed,
                   Data) {}

  Kind kind() const { return K; }
  uint64_t totalRecords() const { return Req.InstCount; }

  const KernelTraceGenerator &generator() const { return *Generator; }
  const GenRequest &request() const { return Req; }
  const KernelDataLayout &layout() const { return Layout; }
  uint64_t serialSeed() const { return Req.Seed; }

private:
  Kind K;
  const KernelTraceGenerator *Generator;
  GenRequest Req; ///< SerialGen reuses InstCount/Seed fields.
  KernelDataLayout Layout;
};

/// Streams a BlockTrace into caller-owned windows. The window boundary
/// falls between generator iterations (except when the total budget ends
/// mid-iteration, exactly as single-shot generation would), so the
/// concatenation of windows equals the materialized stream record for
/// record.
class BlockExpander {
public:
  explicit BlockExpander(const BlockTrace &Source);

  bool done() const { return Remaining == 0; }

  /// Clears \p Window and fills it with the next ~\p Target records.
  /// Returns the number of records produced (0 only when done()).
  uint64_t next(TraceBuffer &Window, size_t Target = ComputeWindowRecords);

private:
  const BlockTrace &Block;
  GenState S;
  uint64_t Remaining = 0;
};

/// Reads a SharedTrace front to back in contiguous spans of exactly the
/// requested length. The spans come from BlockExpander windows: a span
/// that fits in the current window points into it, and one that straddles
/// windows is joined from the carried-over tail and the next windows. The
/// concatenation of all spans is the trace's record stream.
class TraceReader {
public:
  /// \p Trace must outlive the reader.
  explicit TraceReader(const SharedTrace &Trace);

  /// Records not yet handed out.
  uint64_t remaining() const { return Remaining; }

  /// The next \p Count records (0 < Count <= remaining()). The span stays
  /// valid until the next call.
  const TraceRecord *take(size_t Count);

private:
  uint64_t Remaining = 0;
  std::optional<BlockExpander> Expander; ///< Empty handles have none.
  TraceBuffer Window;
  size_t Pos = 0; ///< First unread record of Window.
  std::vector<TraceRecord> Joined;
};

} // namespace hetsim

#endif // HETSIM_TRACE_COMPUTEBLOCK_H
