//===- trace/KernelTraceGenerator.h - Synthetic kernel traces ---*- C++ -*-===//
///
/// \file
/// Synthetic trace generators, so in HetSim a trace is its generator. The
/// paper used real CPU/GPU traces fed to MacSim; the six evaluated kernels'
/// generators match Table III's instruction counts exactly and follow each
/// kernel's compute pattern (streaming for reduction, strided reuse for
/// matrix multiply, overlapping windows for convolution, blocked ALU-heavy
/// work for dct, data-dependent branches for merge sort, and repeated
/// passes with a hot centroid table for k-means). Other workloads subclass
/// KernelTraceGenerator the same way.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_KERNELTRACEGENERATOR_H
#define HETSIM_TRACE_KERNELTRACEGENERATOR_H

#include "common/Random.h"
#include "trace/DataLayout.h"
#include "trace/TraceBuffer.h"

#include <array>

namespace hetsim {

/// How a PU's compute segment divides a kernel's data range. The paper
/// divides the computational work evenly between CPU and GPU (Section
/// IV-B); the CPU processes the first half of each object and the GPU the
/// second half.
enum class WorkSplit : uint8_t {
  FullRange,
  FirstHalf,
  SecondHalf,
};

/// Parameters of one generated compute segment.
struct GenRequest {
  PuKind Pu = PuKind::Cpu;
  uint64_t InstCount = 0;   ///< Exact number of records to produce.
  uint64_t Seed = 1;        ///< RNG seed (data-dependent branch outcomes).
  WorkSplit Split = WorkSplit::FullRange;
};

/// Budget-limited emission into a TraceBuffer. Emitters become no-ops once
/// the exact instruction budget is reached, so generator loop bodies never
/// overshoot. The buffer is extended once up front and filled through a
/// cursor; only an iteration that overruns that slack grows it again (out
/// of line), and the destructor truncates it to the records emitted.
class TraceEmitter {
public:
  /// \p ReserveHint caps the up-front extension: windowed expansion passes
  /// the window size plus slack, so a small reusable buffer is never grown
  /// to the full remaining budget.
  TraceEmitter(TraceBuffer &Out, uint64_t Budget, size_t ReserveHint)
      : Buffer(Out), Remaining(Budget) {
    const size_t Slots = size_t(Budget < ReserveHint ? Budget : ReserveHint);
    First = Cursor = Buffer.extend(Slots);
    Limit = First + Slots;
  }
  ~TraceEmitter() { Buffer.truncate(Buffer.size() - size_t(Limit - Cursor)); }
  TraceEmitter(const TraceEmitter &) = delete;
  TraceEmitter &operator=(const TraceEmitter &) = delete;

  bool done() const { return Remaining == 0; }
  /// Records emitted so far.
  size_t emitted() const { return size_t(Cursor - First); }

  void alu(Opcode Op, uint32_t Pc, uint8_t Dst, uint8_t SrcA,
           uint8_t SrcB = NoReg) {
    if (TraceRecord *R = take())
      *R = aluRecord(Op, Pc, Dst, SrcA, SrcB);
  }

  void load(uint32_t Pc, uint8_t Dst, Addr Address, uint16_t Bytes,
            uint8_t AddrReg = NoReg) {
    if (TraceRecord *R = take())
      *R = loadRecord(Pc, Dst, Address, Bytes, AddrReg);
  }

  void store(uint32_t Pc, uint8_t Src, Addr Address, uint16_t Bytes,
             uint8_t AddrReg = NoReg) {
    if (TraceRecord *R = take())
      *R = storeRecord(Pc, Src, Address, Bytes, AddrReg);
  }

  void branch(uint32_t Pc, bool Taken, uint8_t CondReg = NoReg) {
    if (TraceRecord *R = take())
      *R = branchRecord(Pc, Taken, CondReg);
  }

  void simdLoad(uint32_t Pc, uint8_t Dst, Addr Address, uint16_t BytesPerLane,
                uint8_t Lanes, uint16_t StrideBytes) {
    if (TraceRecord *R = take())
      *R = simdLoadRecord(Pc, Dst, Address, BytesPerLane, Lanes, StrideBytes);
  }

  void simdStore(uint32_t Pc, uint8_t Src, Addr Address,
                 uint16_t BytesPerLane, uint8_t Lanes,
                 uint16_t StrideBytes) {
    if (TraceRecord *R = take())
      *R = simdStoreRecord(Pc, Src, Address, BytesPerLane, Lanes,
                           StrideBytes);
  }

  void smem(bool IsStore, uint32_t Pc, uint8_t Reg, Addr Offset,
            uint16_t Bytes, uint8_t Lanes = 8, uint16_t StrideBytes = 4) {
    if (TraceRecord *R = take())
      *R = smemRecord(IsStore, Pc, Reg, Offset, Bytes, Lanes, StrideBytes);
  }

private:
  /// The next record's slot, or nullptr once the budget is spent.
  TraceRecord *take() {
    if (Remaining == 0)
      return nullptr;
    if (Cursor == Limit)
      grow();
    --Remaining;
    return Cursor++;
  }
  /// Extends the buffer when an iteration overruns the slack.
  void grow();

  TraceBuffer &Buffer;
  uint64_t Remaining;
  TraceRecord *First;  ///< The first record this emitter wrote.
  TraceRecord *Cursor; ///< The next record's slot.
  TraceRecord *Limit;  ///< The end of the extended slots.
};

/// A circular cursor over (part of) a data segment.
struct StreamCursor {
  Addr Base = 0;
  uint64_t Bytes = 0;
  uint64_t Pos = 0;

  /// Returns the current address and advances by \p Step, wrapping.
  Addr advance(uint64_t Step) {
    Addr Current = Base + Pos;
    Pos += Step;
    if (Pos >= Bytes)
      Pos %= Bytes;
    return Current;
  }
};

/// Explicit expansion state for one trace generation: the data cursors,
/// the RNG, and the iteration counter. Generators themselves are
/// stateless; every mutation lands in a caller-owned GenState, so an
/// expansion can be suspended at any window boundary and resumed
/// bit-exactly, and two threads can expand the same kernel concurrently.
struct GenState {
  std::array<StreamCursor, 4> Cur; ///< Generator-defined cursor slots.
  XorShiftRng Rng{1};
  uint64_t Iter = 0;
};

/// Base class for trace generators, Table III's and any other workload's.
class KernelTraceGenerator {
public:
  /// \p GenName identifies the generator: result-store keys hash it, so
  /// no two generators may share one. \p CodeBase starts its code region.
  KernelTraceGenerator(const char *GenName, uint32_t CodeBase)
      : Name(GenName), PcBase(CodeBase) {}
  virtual ~KernelTraceGenerator();

  const char *name() const { return Name; }

  /// The Table III kernel whose forKernel() generator this is. Fatal for
  /// any other generator.
  KernelId kernel() const;

  /// Produces exactly Req.InstCount records of compute for Req.Pu.
  TraceBuffer generateCompute(const GenRequest &Req,
                              const KernelDataLayout &Layout) const;

  /// Seeds \p S for an incremental compute expansion of \p Req. Combined
  /// with emitCompute this produces the same record stream as
  /// generateCompute, one window at a time.
  void beginCompute(GenState &S, const GenRequest &Req,
                    const KernelDataLayout &Layout) const;

  /// Emits the next window of an expansion started by beginCompute: whole
  /// iterations until \p Window grew by at least \p WindowTarget records
  /// or \p Budget (the remaining total) is exhausted. The final iteration
  /// may stop mid-body when the budget runs out — exactly like single-
  /// shot generation. Returns the number of records emitted.
  uint64_t emitCompute(GenState &S, const GenRequest &Req,
                       TraceBuffer &Window, uint64_t Budget,
                       size_t WindowTarget) const;

  /// The same two steps for the sequential (CPU-only) portion:
  /// serialIteration's pass over the layout's output object.
  void beginSerial(GenState &S, const KernelDataLayout &Layout,
                   uint64_t Seed) const;
  uint64_t emitSerial(GenState &S, TraceBuffer &Window, uint64_t Budget,
                      size_t WindowTarget) const;

  /// Returns the generator for \p Id (static lifetime).
  static const KernelTraceGenerator &forKernel(KernelId Id);

  /// Restricts \p Segment to the half selected by \p Split, 64B-aligned;
  /// tiny objects (constant tables) are never split. Exposed so the
  /// lowering can reason about exactly the byte ranges each PU touches
  /// (e.g. which shared pages the GPU faults in first).
  static StreamCursor cursorFor(const DataSegment &Segment, WorkSplit Split);

protected:
  /// A Table III kernel's generator: named after it, with a code region
  /// of its own.
  explicit KernelTraceGenerator(KernelId Id)
      : KernelTraceGenerator(kernelName(Id),
                             (static_cast<uint32_t>(Id) + 1u) * 0x100000u) {}

  /// Emits one CPU loop iteration reading/advancing \p S. Implementations
  /// must emit at least one record per call while budget remains; the
  /// caller bumps S.Iter after each iteration.
  virtual void cpuIteration(TraceEmitter &E, GenState &S) const = 0;

  /// Emits one GPU (warp-granularity) loop iteration.
  virtual void gpuIteration(TraceEmitter &E, GenState &S) const = 0;

  /// Emits whole compute iterations for \p Pu into \p E until it emitted
  /// \p WindowTarget records or spent its budget, bumping S.Iter after
  /// each: one virtual call per window. The default body calls the
  /// virtual iteration hooks; the six final generators override it with
  /// the same body instantiated on their own type, so their hooks inline.
  virtual void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                             size_t WindowTarget) const;

  /// The body of computeWindow, on \p Gen's static type.
  template <typename GenT>
  static void iterate(const GenT &Gen, TraceEmitter &E, GenState &S,
                      PuKind Pu, size_t WindowTarget) {
    if (Pu == PuKind::Cpu) {
      while (!E.done() && E.emitted() < WindowTarget) {
        Gen.cpuIteration(E, S);
        ++S.Iter;
      }
    } else {
      while (!E.done() && E.emitted() < WindowTarget) {
        Gen.gpuIteration(E, S);
        ++S.Iter;
      }
    }
  }

  /// Called before iteration loops so subclasses can set up cursors over
  /// the placed data objects in S.Cur.
  virtual void setUpCursors(GenState &S, const KernelDataLayout &Layout,
                            WorkSplit Split) const = 0;

  /// The start of this generator's code region (distinct per generator so
  /// branch predictor state does not alias across them).
  uint32_t pcBase() const { return PcBase; }

private:
  /// Emits one iteration of the serial pass over the output object in
  /// S.Cur[0]: an 8-instruction merge/finalize step.
  void serialIteration(TraceEmitter &E, GenState &S) const;

  const char *Name;
  uint32_t PcBase;
};

/// Declarations of the six concrete generators. Cursor-slot conventions
/// are private to each kernel's setUpCursors/iteration pair. Each
/// overrides computeWindow with iterate() on its own final type.
class ReductionGenerator final : public KernelTraceGenerator {
public:
  ReductionGenerator() : KernelTraceGenerator(KernelId::Reduction) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
  void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                     size_t WindowTarget) const override;
  friend KernelTraceGenerator; // iterate() calls the hooks directly.
};

class MatrixMulGenerator final : public KernelTraceGenerator {
public:
  MatrixMulGenerator() : KernelTraceGenerator(KernelId::MatrixMul) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
  void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                     size_t WindowTarget) const override;
  friend KernelTraceGenerator; // iterate() calls the hooks directly.
};

class ConvolutionGenerator final : public KernelTraceGenerator {
public:
  ConvolutionGenerator() : KernelTraceGenerator(KernelId::Convolution) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
  void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                     size_t WindowTarget) const override;
  friend KernelTraceGenerator; // iterate() calls the hooks directly.
};

class DctGenerator final : public KernelTraceGenerator {
public:
  DctGenerator() : KernelTraceGenerator(KernelId::Dct) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
  void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                     size_t WindowTarget) const override;
  friend KernelTraceGenerator; // iterate() calls the hooks directly.
};

class MergeSortGenerator final : public KernelTraceGenerator {
public:
  MergeSortGenerator() : KernelTraceGenerator(KernelId::MergeSort) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
  void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                     size_t WindowTarget) const override;
  friend KernelTraceGenerator; // iterate() calls the hooks directly.
};

class KMeansGenerator final : public KernelTraceGenerator {
public:
  KMeansGenerator() : KernelTraceGenerator(KernelId::KMeans) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override;
  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;
  void computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                     size_t WindowTarget) const override;
  friend KernelTraceGenerator; // iterate() calls the hooks directly.
};

} // namespace hetsim

#endif // HETSIM_TRACE_KERNELTRACEGENERATOR_H
