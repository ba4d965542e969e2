//===- trace/KernelGenerators.cpp - The six kernel loop bodies ------------===//
///
/// \file
/// Loop-body emission for the six kernels. CPU iterations emit scalar
/// instructions; GPU iterations emit warp (8-wide SIMD) instructions. Each
/// body is a stylized version of the kernel's inner loop with the paper's
/// compute pattern: register dependences create realistic ILP chains and
/// address streams create each kernel's locality behaviour.
///
/// Bodies read and advance only the caller's GenState (cursor slots, RNG,
/// iteration counter), so an expansion can pause between iterations and
/// resume bit-exactly — the windowed fast path depends on this.
///
//===----------------------------------------------------------------------===//

#include "trace/KernelTraceGenerator.h"

using namespace hetsim;

// Register conventions shared by all generators: r0-r7 loop/index state,
// r8-r31 rotating data values. Rotation creates independent chains so the
// out-of-order CPU model can extract ILP.
static uint8_t rotReg(uint64_t I) { return uint8_t(8 + (I % 24)); }

//===----------------------------------------------------------------------===//
// Reduction: c[i] = a[i] + b[i] plus a running partial sum. Pure streaming:
// two input streams, one output stream, a loop-carried accumulator chain.
// Cursor slots: 0 = a, 1 = b, 2 = c.
//===----------------------------------------------------------------------===//

void ReductionGenerator::computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                                       size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

void ReductionGenerator::setUpCursors(GenState &S, const KernelDataLayout &L,
                                      WorkSplit Split) const {
  S.Cur[0] = cursorFor(L.segment("a"), Split);
  S.Cur[1] = cursorFor(L.segment("b"), Split);
  S.Cur[2] = cursorFor(L.segment("c"), Split);
}

void ReductionGenerator::cpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase();
  StreamCursor &A = S.Cur[0], &B = S.Cur[1], &C = S.Cur[2];
  uint8_t V = rotReg(S.Iter);
  E.load(Pc + 0, V, A.advance(4), 4);
  E.load(Pc + 4, uint8_t(V + 1), B.advance(4), 4);
  E.alu(Opcode::FpAlu, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
  E.store(Pc + 12, uint8_t(V + 2), C.advance(4), 4);
  // Accumulator r7 is a loop-carried dependence (the reduction itself).
  E.alu(Opcode::FpAlu, Pc + 16, 7, 7, uint8_t(V + 2));
  E.branch(Pc + 20, /*Taken=*/true, 0);
}

void ReductionGenerator::gpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase() + 0x1000;
  StreamCursor &A = S.Cur[0], &B = S.Cur[1], &C = S.Cur[2];
  uint8_t V = rotReg(S.Iter);
  E.simdLoad(Pc + 0, V, A.advance(32), 4, 8, 4);
  E.simdLoad(Pc + 4, uint8_t(V + 1), B.advance(32), 4, 8, 4);
  E.alu(Opcode::FpAlu, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
  E.simdStore(Pc + 12, uint8_t(V + 2), C.advance(32), 4, 8, 4);
  E.alu(Opcode::FpAlu, Pc + 16, 7, 7, uint8_t(V + 2));
  E.branch(Pc + 20, /*Taken=*/true, 0);
}

//===----------------------------------------------------------------------===//
// Matrix multiply: inner-product loop. A streams sequentially, B is strided
// by a 256-float row (1KB), C is written once per 8 multiply-accumulates.
// High reuse: the B working set cycles and stays cache-resident per block.
// Cursor slots: 0 = A, 1 = B, 2 = C.
//===----------------------------------------------------------------------===//

namespace {
constexpr uint64_t MatRowBytes = 1024; // 256 floats per row.
} // namespace

void MatrixMulGenerator::computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                                       size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

void MatrixMulGenerator::setUpCursors(GenState &S, const KernelDataLayout &L,
                                      WorkSplit Split) const {
  S.Cur[0] = cursorFor(L.segment("A"), Split);
  S.Cur[1] = cursorFor(L.segment("B"), WorkSplit::FullRange);
  S.Cur[2] = cursorFor(L.segment("C"), Split);
}

void MatrixMulGenerator::cpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase();
  StreamCursor &MatA = S.Cur[0], &MatB = S.Cur[1], &MatC = S.Cur[2];
  uint8_t V = rotReg(S.Iter);
  E.load(Pc + 0, V, MatA.advance(4), 4);
  E.load(Pc + 4, uint8_t(V + 1), MatB.advance(MatRowBytes), 4);
  E.alu(Opcode::FpMac, Pc + 8, 7, V, uint8_t(V + 1));
  if (S.Iter % 8 == 7) {
    E.store(Pc + 12, 7, MatC.advance(4), 4);
    E.alu(Opcode::IntAlu, Pc + 16, 0, 0);
    E.branch(Pc + 20, /*Taken=*/true, 0);
  }
}

void MatrixMulGenerator::gpuIteration(TraceEmitter &E, GenState &S) const {
  // Fermi-style tile: global loads staged through the software-managed
  // cache (16KB, Table II), then MACs read from the scratchpad.
  const uint32_t Pc = pcBase() + 0x1000;
  StreamCursor &MatA = S.Cur[0], &MatB = S.Cur[1], &MatC = S.Cur[2];
  uint8_t V = rotReg(S.Iter);
  Addr SmemOff = (S.Iter * 32) % (16 * 1024);
  E.simdLoad(Pc + 0, V, MatA.advance(32), 4, 8, 4);
  E.smem(/*IsStore=*/true, Pc + 4, V, SmemOff, 4);
  E.simdLoad(Pc + 8, uint8_t(V + 1), MatB.advance(MatRowBytes), 4, 8, 4);
  E.smem(/*IsStore=*/false, Pc + 12, uint8_t(V + 2), SmemOff, 4);
  E.alu(Opcode::FpMac, Pc + 16, 7, uint8_t(V + 1), uint8_t(V + 2));
  if (S.Iter % 8 == 7) {
    E.simdStore(Pc + 20, 7, MatC.advance(32), 4, 8, 4);
    E.branch(Pc + 24, /*Taken=*/true, 0);
  }
}

//===----------------------------------------------------------------------===//
// Convolution: sliding window. Overlapping image loads (high spatial
// locality), a small filter table that stays resident, one store per tap
// group. Cursor slots: 0 = image, 1 = filter, 2 = out.
//===----------------------------------------------------------------------===//

void ConvolutionGenerator::computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                                         size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

void ConvolutionGenerator::setUpCursors(GenState &S, const KernelDataLayout &L,
                                        WorkSplit Split) const {
  S.Cur[0] = cursorFor(L.segment("image"), Split);
  S.Cur[1] = cursorFor(L.segment("filter"), WorkSplit::FullRange);
  S.Cur[2] = cursorFor(L.segment("out"), Split);
}

void ConvolutionGenerator::cpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase();
  StreamCursor &Image = S.Cur[0], &Filter = S.Cur[1], &Out = S.Cur[2];
  uint8_t V = rotReg(S.Iter);
  Addr Window = Image.advance(4);
  E.load(Pc + 0, V, Window, 4);
  E.load(Pc + 4, uint8_t(V + 1), Window + 4, 4);
  E.load(Pc + 8, uint8_t(V + 2), Filter.advance(4), 4);
  E.alu(Opcode::FpMac, Pc + 12, uint8_t(V + 3), V, uint8_t(V + 2));
  E.alu(Opcode::FpMac, Pc + 16, uint8_t(V + 3), uint8_t(V + 1),
        uint8_t(V + 2));
  E.store(Pc + 20, uint8_t(V + 3), Out.advance(4), 4);
  E.alu(Opcode::IntAlu, Pc + 24, 0, 0);
  E.branch(Pc + 28, /*Taken=*/true, 0);
}

void ConvolutionGenerator::gpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase() + 0x1000;
  StreamCursor &Image = S.Cur[0], &Filter = S.Cur[1], &Out = S.Cur[2];
  uint8_t V = rotReg(S.Iter);
  Addr Window = Image.advance(32);
  E.simdLoad(Pc + 0, V, Window, 4, 8, 4);
  E.simdLoad(Pc + 4, uint8_t(V + 1), Window + 4, 4, 8, 4);
  E.load(Pc + 8, uint8_t(V + 2), Filter.advance(4), 4);
  E.alu(Opcode::FpMac, Pc + 12, uint8_t(V + 3), V, uint8_t(V + 2));
  E.alu(Opcode::FpMac, Pc + 16, uint8_t(V + 3), uint8_t(V + 1),
        uint8_t(V + 2));
  E.simdStore(Pc + 20, uint8_t(V + 3), Out.advance(32), 4, 8, 4);
  E.alu(Opcode::IntAlu, Pc + 24, 0, 0);
  E.branch(Pc + 28, /*Taken=*/true, 0);
}

//===----------------------------------------------------------------------===//
// DCT: 8-point butterfly per iteration. ALU-heavy (the paper's dct has the
// largest Comp line count), in-place blocks object, coefficient output.
// Cursor slots: 0 = blocks, 1 = coeffs.
//===----------------------------------------------------------------------===//

void DctGenerator::computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                                 size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

void DctGenerator::setUpCursors(GenState &S, const KernelDataLayout &L,
                                WorkSplit Split) const {
  S.Cur[0] = cursorFor(L.segment("blocks"), Split);
  S.Cur[1] = cursorFor(L.segment("coeffs"), Split);
}

void DctGenerator::cpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase();
  StreamCursor &Blocks = S.Cur[0], &Coeffs = S.Cur[1];
  uint8_t V = rotReg(S.Iter * 4);
  Addr Row = Blocks.advance(32);
  E.load(Pc + 0, V, Row, 4);
  E.load(Pc + 4, uint8_t(V + 1), Row + 16, 4);
  E.alu(Opcode::FpAlu, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
  E.alu(Opcode::FpAlu, Pc + 12, uint8_t(V + 3), V, uint8_t(V + 1));
  E.alu(Opcode::FpMul, Pc + 16, uint8_t(V + 2), uint8_t(V + 2), 6);
  E.alu(Opcode::FpMul, Pc + 20, uint8_t(V + 3), uint8_t(V + 3), 6);
  E.alu(Opcode::FpMac, Pc + 24, uint8_t(V + 2), uint8_t(V + 2), 5);
  E.alu(Opcode::FpMac, Pc + 28, uint8_t(V + 3), uint8_t(V + 3), 5);
  E.store(Pc + 32, uint8_t(V + 2), Coeffs.advance(8), 4);
  E.alu(Opcode::IntAlu, Pc + 36, 0, 0);
  E.branch(Pc + 40, /*Taken=*/true, 0);
}

void DctGenerator::gpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase() + 0x1000;
  StreamCursor &Blocks = S.Cur[0], &Coeffs = S.Cur[1];
  uint8_t V = rotReg(S.Iter * 4);
  Addr Row = Blocks.advance(32);
  Addr SmemOff = (S.Iter * 32) % (16 * 1024);
  E.simdLoad(Pc + 0, V, Row, 4, 8, 4);
  E.smem(/*IsStore=*/true, Pc + 4, V, SmemOff, 4);
  E.smem(/*IsStore=*/false, Pc + 8, uint8_t(V + 1), SmemOff, 4);
  E.alu(Opcode::FpAlu, Pc + 12, uint8_t(V + 2), uint8_t(V + 1), 6);
  E.alu(Opcode::FpMul, Pc + 16, uint8_t(V + 2), uint8_t(V + 2), 6);
  E.alu(Opcode::FpMac, Pc + 20, uint8_t(V + 3), uint8_t(V + 2), 5);
  E.alu(Opcode::FpMac, Pc + 24, uint8_t(V + 3), uint8_t(V + 3), 5);
  E.simdStore(Pc + 28, uint8_t(V + 3), Coeffs.advance(32), 4, 8, 4);
  E.alu(Opcode::IntAlu, Pc + 32, 0, 0);
  E.branch(Pc + 36, /*Taken=*/true, 0);
}

//===----------------------------------------------------------------------===//
// Merge sort: two run cursors, one data-dependent compare branch per
// element (about 50% taken: hard to predict, the paper's merge sort has
// high communication AND branchy behaviour), one output store.
// Cursor slots: 0 = keys, 1 = sorted.
//===----------------------------------------------------------------------===//

void MergeSortGenerator::computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                                       size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

void MergeSortGenerator::setUpCursors(GenState &S, const KernelDataLayout &L,
                                      WorkSplit Split) const {
  S.Cur[0] = cursorFor(L.segment("keys"), Split);
  S.Cur[1] = cursorFor(L.segment("sorted"), Split);
}

void MergeSortGenerator::cpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase();
  StreamCursor &Keys = S.Cur[0], &Sorted = S.Cur[1];
  uint8_t V = rotReg(S.Iter);
  Addr Left = Keys.advance(4);
  uint64_t HalfRun = Keys.Bytes / 2;
  Addr Right = Keys.Base + (Left - Keys.Base + HalfRun) % Keys.Bytes;
  E.load(Pc + 0, V, Left, 4);
  E.load(Pc + 4, uint8_t(V + 1), Right, 4);
  E.alu(Opcode::IntAlu, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
  E.branch(Pc + 12, S.Rng.nextBool(0.5), uint8_t(V + 2));
  E.store(Pc + 16, uint8_t(V + 2), Sorted.advance(4), 4);
  E.alu(Opcode::IntAlu, Pc + 20, 0, 0);
  E.branch(Pc + 24, /*Taken=*/true, 0);
}

void MergeSortGenerator::gpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase() + 0x1000;
  StreamCursor &Keys = S.Cur[0], &Sorted = S.Cur[1];
  uint8_t V = rotReg(S.Iter);
  Addr Left = Keys.advance(32);
  uint64_t HalfRun = Keys.Bytes / 2;
  Addr Right = Keys.Base + (Left - Keys.Base + HalfRun) % Keys.Bytes;
  E.simdLoad(Pc + 0, V, Left, 4, 8, 4);
  E.simdLoad(Pc + 4, uint8_t(V + 1), Right, 4, 8, 4);
  E.alu(Opcode::IntAlu, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
  // The GPU stalls on every branch (Table II: no predictor); divergent
  // compare branches are the expensive part of GPU merge sort.
  E.branch(Pc + 12, S.Rng.nextBool(0.5), uint8_t(V + 2));
  E.simdStore(Pc + 16, uint8_t(V + 2), Sorted.advance(32), 4, 8, 4);
  E.alu(Opcode::IntAlu, Pc + 20, 0, 0);
  E.branch(Pc + 24, /*Taken=*/true, 0);
}

//===----------------------------------------------------------------------===//
// K-means: per point, distance to a hot centroid table (cache-resident),
// argmin with a mildly data-dependent branch, assignment store. Repeated
// passes model the outer iteration (3 rounds in the paper's run).
// Cursor slots: 0 = points, 1 = centroids.
//===----------------------------------------------------------------------===//

void KMeansGenerator::computeWindow(TraceEmitter &E, GenState &S, PuKind Pu,
                                    size_t WindowTarget) const {
  iterate(*this, E, S, Pu, WindowTarget);
}

void KMeansGenerator::setUpCursors(GenState &S, const KernelDataLayout &L,
                                   WorkSplit Split) const {
  S.Cur[0] = cursorFor(L.segment("points"), Split);
  S.Cur[1] = cursorFor(L.segment("centroids"), WorkSplit::FullRange);
}

void KMeansGenerator::cpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase();
  StreamCursor &Points = S.Cur[0], &Centroids = S.Cur[1];
  uint8_t V = rotReg(S.Iter * 2);
  Addr Point = Points.advance(8);
  E.load(Pc + 0, V, Point, 8);
  // Distances to 4 centroids; the table is tiny and stays in L1.
  for (unsigned K = 0; K != 4; ++K) {
    E.load(Pc + 4 + 12 * K, uint8_t(V + 1), Centroids.advance(8), 8);
    E.alu(Opcode::FpAlu, Pc + 8 + 12 * K, uint8_t(V + 2), V, uint8_t(V + 1));
    E.alu(Opcode::FpMac, Pc + 12 + 12 * K, uint8_t(V + 3), uint8_t(V + 2),
          uint8_t(V + 2));
  }
  E.branch(Pc + 52, S.Rng.nextBool(0.75), uint8_t(V + 3));
  E.store(Pc + 56, uint8_t(V + 3), Point, 4);
  E.alu(Opcode::IntAlu, Pc + 60, 0, 0);
  E.branch(Pc + 64, /*Taken=*/true, 0);
}

void KMeansGenerator::gpuIteration(TraceEmitter &E, GenState &S) const {
  const uint32_t Pc = pcBase() + 0x1000;
  StreamCursor &Points = S.Cur[0], &Centroids = S.Cur[1];
  uint8_t V = rotReg(S.Iter * 2);
  Addr Point = Points.advance(64);
  E.simdLoad(Pc + 0, V, Point, 8, 8, 8);
  for (unsigned K = 0; K != 4; ++K) {
    E.load(Pc + 4 + 12 * K, uint8_t(V + 1), Centroids.advance(8), 8);
    E.alu(Opcode::FpAlu, Pc + 8 + 12 * K, uint8_t(V + 2), V, uint8_t(V + 1));
    E.alu(Opcode::FpMac, Pc + 12 + 12 * K, uint8_t(V + 3), uint8_t(V + 2),
          uint8_t(V + 2));
  }
  E.branch(Pc + 52, S.Rng.nextBool(0.75), uint8_t(V + 3));
  E.simdStore(Pc + 56, uint8_t(V + 3), Point, 4, 8, 8);
  E.alu(Opcode::IntAlu, Pc + 60, 0, 0);
  E.branch(Pc + 64, /*Taken=*/true, 0);
}
