//===- trace/KernelTraceGenerator.cpp -------------------------------------===//

#include "trace/KernelTraceGenerator.h"

#include "common/Error.h"
#include "trace/ComputeBlock.h"

#include <cassert>

using namespace hetsim;

void TraceEmitter::grow() {
  // Double what this emitter has written (at least 64 records), within
  // the budget. The buffer ends at Limit == Cursor, so the new slots
  // continue the cursor.
  const size_t Emitted = emitted();
  const uint64_t Want = Emitted < 64 ? 64 : Emitted;
  const size_t More = size_t(Remaining < Want ? Remaining : Want);
  Cursor = Buffer.extend(More);
  First = Cursor - Emitted;
  Limit = Cursor + More;
}

KernelTraceGenerator::~KernelTraceGenerator() = default;

StreamCursor KernelTraceGenerator::cursorFor(const DataSegment &Segment,
                                             WorkSplit Split) {
  StreamCursor Cursor;
  uint64_t Half = alignDown(Segment.Bytes / 2, CacheLineBytes);
  // Tiny objects (constant tables) are not split; both PUs read them whole.
  if (Half < CacheLineBytes)
    Split = WorkSplit::FullRange;
  switch (Split) {
  case WorkSplit::FullRange:
    Cursor.Base = Segment.Base;
    Cursor.Bytes = Segment.Bytes;
    break;
  case WorkSplit::FirstHalf:
    Cursor.Base = Segment.Base;
    Cursor.Bytes = Half;
    break;
  case WorkSplit::SecondHalf:
    Cursor.Base = Segment.Base + Half;
    Cursor.Bytes = Segment.Bytes - Half;
    break;
  }
  assert(Cursor.Bytes > 0 && "empty cursor range");
  return Cursor;
}

void KernelTraceGenerator::beginCompute(GenState &S, const GenRequest &Req,
                                        const KernelDataLayout &Layout) const {
  S = GenState();
  setUpCursors(S, Layout, Req.Split);
  S.Rng = XorShiftRng(Req.Seed * 2654435761u + static_cast<uint64_t>(Req.Pu));
}

uint64_t KernelTraceGenerator::emitCompute(GenState &S, const GenRequest &Req,
                                           TraceBuffer &Window,
                                           uint64_t Budget,
                                           size_t WindowTarget) const {
  TraceEmitter Emitter(Window, Budget, WindowTarget + 64);
  computeWindow(Emitter, S, Req.Pu, WindowTarget);
  return Emitter.emitted();
}

void KernelTraceGenerator::computeWindow(TraceEmitter &E, GenState &S,
                                         PuKind Pu,
                                         size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

TraceBuffer
KernelTraceGenerator::generateCompute(const GenRequest &Req,
                                      const KernelDataLayout &Layout) const {
  TraceBuffer Buffer;
  if (Req.InstCount == 0)
    return Buffer;
  TraceGenScope Timer;
  GenState S;
  beginCompute(S, Req, Layout);
  emitCompute(S, Req, Buffer, Req.InstCount, size_t(Req.InstCount));
  assert(Buffer.size() == Req.InstCount && "generator missed its budget");
  return Buffer;
}

void KernelTraceGenerator::beginSerial(GenState &S,
                                       const KernelDataLayout &Layout,
                                       uint64_t Seed) const {
  S = GenState();
  const std::vector<DataSegment> &Segments = Layout.segments();
  assert(!Segments.empty() && "layout has no segments");
  const DataSegment *Output = &Segments.back();
  for (const DataSegment &Segment : Segments)
    if (Segment.Dir == TransferDir::DeviceToHost)
      Output = &Segment;
  S.Cur[0] = cursorFor(*Output, WorkSplit::FullRange);
  S.Rng = XorShiftRng(Seed * 0x9E3779B9u + 7);
}

uint64_t KernelTraceGenerator::emitSerial(GenState &S, TraceBuffer &Window,
                                          uint64_t Budget,
                                          size_t WindowTarget) const {
  TraceEmitter E(Window, Budget, WindowTarget + 16);
  while (!E.done() && E.emitted() < WindowTarget) {
    serialIteration(E, S);
    ++S.Iter;
  }
  return E.emitted();
}

void KernelTraceGenerator::serialIteration(TraceEmitter &E,
                                           GenState &S) const {
  // The sequential portion is a CPU-only merge/finalize pass over the
  // kernel's output object: load partial results, combine, occasionally
  // store, loop.
  const uint32_t Pc = pcBase() + 0x8000;
  Addr Address = S.Cur[0].advance(4);
  E.load(Pc + 0, 8, Address, 4);
  E.alu(Opcode::FpAlu, Pc + 4, 9, 8, 10);
  E.alu(Opcode::IntAlu, Pc + 8, 10, 9);
  E.alu(Opcode::FpAlu, Pc + 12, 11, 10, 9);
  if (S.Iter % 4 == 3)
    E.store(Pc + 16, 11, Address, 4);
  else
    E.alu(Opcode::IntAlu, Pc + 16, 12, 11);
  E.alu(Opcode::IntAlu, Pc + 20, 0, 0);
  E.alu(Opcode::IntAlu, Pc + 24, 13, 12, 11);
  E.branch(Pc + 28, /*Taken=*/true, 0);
}

const KernelTraceGenerator &KernelTraceGenerator::forKernel(KernelId Id) {
  static const ReductionGenerator Reduction;
  static const MatrixMulGenerator MatrixMul;
  static const ConvolutionGenerator Convolution;
  static const DctGenerator Dct;
  static const MergeSortGenerator MergeSort;
  static const KMeansGenerator KMeans;
  switch (Id) {
  case KernelId::Reduction:
    return Reduction;
  case KernelId::MatrixMul:
    return MatrixMul;
  case KernelId::Convolution:
    return Convolution;
  case KernelId::Dct:
    return Dct;
  case KernelId::MergeSort:
    return MergeSort;
  case KernelId::KMeans:
    return KMeans;
  }
  hetsim_unreachable("invalid kernel id");
}

KernelId KernelTraceGenerator::kernel() const {
  for (KernelId Id : allKernels())
    if (&forKernel(Id) == this)
      return Id;
  fatalError("the generator models no Table III kernel");
}
