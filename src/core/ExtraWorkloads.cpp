//===- core/ExtraWorkloads.cpp --------------------------------------------===//

#include "core/ExtraWorkloads.h"

#include "common/Error.h"
#include "trace/ComputeBlock.h"

#include <algorithm>

using namespace hetsim;

const char *hetsim::extraWorkloadName(ExtraWorkloadId Id) {
  switch (Id) {
  case ExtraWorkloadId::StreamTriad:
    return "stream triad";
  case ExtraWorkloadId::Histogram:
    return "histogram";
  case ExtraWorkloadId::Spmv:
    return "spmv";
  case ExtraWorkloadId::Fft:
    return "fft";
  case ExtraWorkloadId::Bfs:
    return "bfs";
  }
  hetsim_unreachable("invalid extra workload");
}

const std::vector<ExtraWorkloadId> &hetsim::allExtraWorkloads() {
  static const std::vector<ExtraWorkloadId> Ids = {
      ExtraWorkloadId::StreamTriad, ExtraWorkloadId::Histogram,
      ExtraWorkloadId::Spmv, ExtraWorkloadId::Fft, ExtraWorkloadId::Bfs};
  return Ids;
}

namespace {

/// Object lists per workload. Sizes derive from Elements at build time;
/// names are static strings (DataObjectSpec holds const char*).
std::vector<DataObjectSpec> objectsFor(ExtraWorkloadId Id,
                                       uint64_t Elements) {
  const uint64_t Bytes = Elements * 4;
  switch (Id) {
  case ExtraWorkloadId::StreamTriad:
    return {{"b", Bytes, TransferDir::HostToDevice},
            {"c", Bytes, TransferDir::HostToDevice},
            {"a", Bytes, TransferDir::DeviceToHost}};
  case ExtraWorkloadId::Histogram:
    return {{"input", Bytes, TransferDir::HostToDevice},
            {"bins", 256 * 4, TransferDir::DeviceToHost}};
  case ExtraWorkloadId::Spmv:
    // nnz values + column indices + the dense vector in; y out.
    return {{"vals", Bytes, TransferDir::HostToDevice},
            {"cols", Bytes, TransferDir::HostToDevice},
            {"x", Bytes / 4, TransferDir::HostToDevice},
            {"y", Bytes / 8, TransferDir::DeviceToHost}};
  case ExtraWorkloadId::Fft:
    // Complex samples in place (in->out buffers) + twiddle table.
    return {{"samples", Bytes * 2, TransferDir::HostToDevice},
            {"twiddles", 4096, TransferDir::HostToDevice},
            {"spectrum", Bytes * 2, TransferDir::DeviceToHost}};
  case ExtraWorkloadId::Bfs:
    // CSR adjacency (offsets+edges), frontier in, distances out.
    return {{"offsets", Bytes / 4, TransferDir::HostToDevice},
            {"edges", Bytes, TransferDir::HostToDevice},
            {"dist", Bytes / 4, TransferDir::DeviceToHost}};
  }
  hetsim_unreachable("invalid extra workload");
}

/// The stride of butterfly pass \p Pass: it doubles each pass from
/// \p First and returns to \p First after reaching half of \p Span.
uint64_t fftStride(uint64_t First, uint64_t Span, uint64_t Pass) {
  uint64_t Cycle = 1;
  for (uint64_t Stride = First; Stride < Span / 2; Stride *= 2)
    ++Cycle;
  return First << (Pass % Cycle);
}

/// One workload's generator. The CPU half (FirstHalf) takes one iteration
/// per element, the GPU half (SecondHalf) one per warp of 8; CPU bodies
/// sit at 0xA00000 + 64KB per workload and GPU bodies 1MB above. The
/// serial finish pass reduces the output object, 3 records per element.
class ExtraWorkloadGenerator final : public KernelTraceGenerator {
public:
  explicit ExtraWorkloadGenerator(ExtraWorkloadId Workload)
      : KernelTraceGenerator(extraWorkloadName(Workload),
                             0xA00000 + uint32_t(Workload) * 0x10000),
        Id(Workload) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &L,
                    WorkSplit Split) const override {
    // Slots follow objectsFor's order. Streams split between the PUs;
    // gather targets and tables stay whole.
    struct Slot {
      const char *Name;
      bool Streamed;
    };
    static const std::vector<Slot> Slots[NumExtraWorkloads] = {
        {{"b", true}, {"c", true}, {"a", true}},
        {{"input", true}, {"bins", false}},
        {{"vals", true}, {"cols", true}, {"x", false}, {"y", true}},
        {{"samples", false}, {"twiddles", false}, {"spectrum", true}},
        {{"offsets", true}, {"edges", false}, {"dist", false}}};
    unsigned I = 0;
    for (const Slot &C : Slots[unsigned(Id)])
      S.Cur[I++] = cursorFor(L.segment(C.Name),
                             C.Streamed ? Split : WorkSplit::FullRange);
  }

  void cpuIteration(TraceEmitter &E, GenState &S) const override;
  void gpuIteration(TraceEmitter &E, GenState &S) const override;

  uint64_t rngSeed(const GenRequest &Req) const override {
    return Req.Pu == PuKind::Cpu ? Req.Seed : Req.Seed * 7 + 3;
  }

  void serialIteration(TraceEmitter &E, GenState &S) const override {
    const uint32_t Pc = 0xC00000;
    E.load(Pc, 8, S.Cur[0].advance(4), 4);
    E.alu(Opcode::FpAlu, Pc + 4, 7, 7, 8);
    E.branch(Pc + 8, true, 0);
  }

private:
  ExtraWorkloadId Id;
};

void ExtraWorkloadGenerator::cpuIteration(TraceEmitter &E,
                                          GenState &S) const {
  const uint32_t Pc = pcBase();
  const uint64_t I = S.Iter;
  const uint8_t V = uint8_t(8 + I % 20);
  switch (Id) {
  case ExtraWorkloadId::StreamTriad: // Cursors: b, c, a.
    E.load(Pc + 0, V, S.Cur[0].advance(4), 4);
    E.load(Pc + 4, uint8_t(V + 1), S.Cur[1].advance(4), 4);
    E.alu(Opcode::FpMac, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
    E.store(Pc + 12, uint8_t(V + 2), S.Cur[2].advance(4), 4);
    E.branch(Pc + 16, true, 0);
    return;
  case ExtraWorkloadId::Histogram: { // Cursors: input, bins.
    E.load(Pc + 0, V, S.Cur[0].advance(4), 4);
    // Data-dependent bin: read-modify-write of a hot 1KB table.
    Addr Bin = S.Cur[1].Base + S.Rng.nextBelow(256) * 4;
    E.load(Pc + 4, uint8_t(V + 1), Bin, 4, V);
    E.alu(Opcode::IntAlu, Pc + 8, uint8_t(V + 1), uint8_t(V + 1));
    E.store(Pc + 12, uint8_t(V + 1), Bin, 4);
    E.branch(Pc + 16, true, 0);
    return;
  }
  case ExtraWorkloadId::Spmv: { // Cursors: vals, cols, x, y.
    const StreamCursor &X = S.Cur[2];
    E.load(Pc + 0, V, S.Cur[0].advance(4), 4);
    E.load(Pc + 4, uint8_t(V + 1), S.Cur[1].advance(4), 4);
    // Irregular gather of x[col].
    Addr Gather = X.Base + alignDown(S.Rng.nextBelow(X.Bytes), 4);
    E.load(Pc + 8, uint8_t(V + 2), Gather, 4, uint8_t(V + 1));
    E.alu(Opcode::FpMac, Pc + 12, 7, V, uint8_t(V + 2));
    if (I % 8 == 7) {
      E.store(Pc + 16, 7, S.Cur[3].advance(4), 4);
      E.branch(Pc + 20, true, 0);
    }
    return;
  }
  case ExtraWorkloadId::Fft: { // Cursors: samples, twiddles, spectrum.
    // Butterfly passes over the lower half, one 16B step per iteration:
    // the stride doubles each pass, so late passes touch a new line on
    // every load (cache-hostile); the twiddle table stays resident.
    const StreamCursor &Samples = S.Cur[0];
    const uint64_t Half = Samples.Bytes / 2;
    const uint64_t Steps = ceilDiv(Half, 16);
    const uint64_t Pos = I % Steps * 16;
    const uint64_t Stride = fftStride(8, Half, I / Steps);
    E.load(Pc + 0, V, Samples.Base + Pos, 8);
    E.load(Pc + 4, uint8_t(V + 1), Samples.Base + (Pos + Stride) % Half, 8);
    E.load(Pc + 8, uint8_t(V + 2), S.Cur[1].Base + (I % 512) * 8, 8);
    E.alu(Opcode::FpMul, Pc + 12, uint8_t(V + 3), uint8_t(V + 1),
          uint8_t(V + 2));
    E.alu(Opcode::FpAlu, Pc + 16, uint8_t(V + 3), V, uint8_t(V + 3));
    E.store(Pc + 20, uint8_t(V + 3), S.Cur[2].advance(8), 8);
    E.branch(Pc + 24, true, 0);
    return;
  }
  case ExtraWorkloadId::Bfs: { // Cursors: offsets, edges, dist.
    const StreamCursor &Edges = S.Cur[1], &Dist = S.Cur[2];
    E.load(Pc + 0, V, S.Cur[0].advance(4), 4);
    // Random neighbor gather through the edge list.
    Addr Edge = Edges.Base + alignDown(S.Rng.nextBelow(Edges.Bytes), 4);
    E.load(Pc + 4, uint8_t(V + 1), Edge, 4, V);
    // Visited check on dist[neighbor]: data-dependent branch.
    Addr Visited = Dist.Base + alignDown(S.Rng.nextBelow(Dist.Bytes), 4);
    E.load(Pc + 8, uint8_t(V + 2), Visited, 4, uint8_t(V + 1));
    E.branch(Pc + 12, S.Rng.nextBool(0.4), uint8_t(V + 2));
    if (I % 3 == 0)
      E.store(Pc + 16, uint8_t(V + 2), Visited, 4);
    E.alu(Opcode::IntAlu, Pc + 20, 0, 0);
    E.branch(Pc + 24, true, 0);
    return;
  }
  }
}

void ExtraWorkloadGenerator::gpuIteration(TraceEmitter &E,
                                          GenState &S) const {
  const uint32_t Pc = pcBase() + 0x100000;
  const uint64_t I = S.Iter;
  const uint8_t V = uint8_t(8 + I % 20);
  switch (Id) {
  case ExtraWorkloadId::StreamTriad:
    E.simdLoad(Pc + 0, V, S.Cur[0].advance(32), 4, 8, 4);
    E.simdLoad(Pc + 4, uint8_t(V + 1), S.Cur[1].advance(32), 4, 8, 4);
    E.alu(Opcode::FpMac, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
    E.simdStore(Pc + 12, uint8_t(V + 2), S.Cur[2].advance(32), 4, 8, 4);
    E.branch(Pc + 16, true, 0);
    return;
  case ExtraWorkloadId::Histogram: {
    E.simdLoad(Pc + 0, V, S.Cur[0].advance(32), 4, 8, 4);
    // Scattered atomic-style bin updates: one lane-scattered access.
    Addr Bin = S.Cur[1].Base + S.Rng.nextBelow(32) * 4;
    E.simdLoad(Pc + 4, uint8_t(V + 1), Bin, 4, 8, 28);
    E.alu(Opcode::IntAlu, Pc + 8, uint8_t(V + 1), uint8_t(V + 1));
    E.simdStore(Pc + 12, uint8_t(V + 1), Bin, 4, 8, 28);
    E.branch(Pc + 16, true, 0);
    return;
  }
  case ExtraWorkloadId::Spmv: {
    const StreamCursor &X = S.Cur[2];
    E.simdLoad(Pc + 0, V, S.Cur[0].advance(32), 4, 8, 4);
    // Divergent gathers: wide lane stride defeats coalescing.
    Addr Gather = X.Base + alignDown(S.Rng.nextBelow(X.Bytes / 2), 4);
    E.simdLoad(Pc + 4, uint8_t(V + 1), Gather, 4, 8, 512);
    E.alu(Opcode::FpMac, Pc + 8, 7, V, uint8_t(V + 1));
    if (I % 8 == 7)
      E.simdStore(Pc + 12, 7, S.Cur[3].advance(32), 4, 8, 4);
    E.branch(Pc + 16, true, 0);
    return;
  }
  case ExtraWorkloadId::Fft: {
    // The same passes over the upper half, one 128B warp step each.
    const StreamCursor &Samples = S.Cur[0];
    const uint64_t Half = Samples.Bytes / 2;
    const uint64_t Steps = ceilDiv(Samples.Bytes - Half, 128);
    const uint64_t Pos = I % Steps * 128;
    const uint64_t Stride = fftStride(64, Half, I / Steps);
    const Addr Upper = Samples.Base + Half;
    E.simdLoad(Pc + 0, V, Upper + Pos, 8, 8, 8);
    E.simdLoad(Pc + 4, uint8_t(V + 1), Upper + (Pos + Stride) % Half, 8, 8,
               8);
    E.load(Pc + 8, uint8_t(V + 2), S.Cur[1].Base + (I % 512) * 8, 8);
    E.alu(Opcode::FpMul, Pc + 12, uint8_t(V + 3), uint8_t(V + 1),
          uint8_t(V + 2));
    E.alu(Opcode::FpAlu, Pc + 16, uint8_t(V + 3), V, uint8_t(V + 3));
    E.simdStore(Pc + 20, uint8_t(V + 3), S.Cur[2].advance(64), 8, 8, 8);
    E.branch(Pc + 24, true, 0);
    return;
  }
  case ExtraWorkloadId::Bfs: {
    const StreamCursor &Edges = S.Cur[1], &Dist = S.Cur[2];
    E.simdLoad(Pc + 0, V, S.Cur[0].advance(32), 4, 8, 4);
    // Divergent gathers: wide lane stride models per-lane neighbors.
    Addr Edge = Edges.Base + alignDown(S.Rng.nextBelow(Edges.Bytes / 2), 4);
    E.simdLoad(Pc + 4, uint8_t(V + 1), Edge, 4, 8, 256);
    Addr Visited = Dist.Base + alignDown(S.Rng.nextBelow(Dist.Bytes / 2), 4);
    E.simdLoad(Pc + 8, uint8_t(V + 2), Visited, 4, 8, 128);
    // Divergent visited-check branch.
    E.branch(Pc + 12, S.Rng.nextBool(0.4), uint8_t(V + 2));
    if (I % 3 == 0)
      E.simdStore(Pc + 16, uint8_t(V + 2), Visited, 4, 8, 128);
    E.alu(Opcode::IntAlu, Pc + 20, 0, 0);
    E.branch(Pc + 24, true, 0);
    return;
  }
  }
}

const KernelTraceGenerator &generatorFor(ExtraWorkloadId Id) {
  static const ExtraWorkloadGenerator Generators[NumExtraWorkloads] = {
      ExtraWorkloadGenerator(ExtraWorkloadId::StreamTriad),
      ExtraWorkloadGenerator(ExtraWorkloadId::Histogram),
      ExtraWorkloadGenerator(ExtraWorkloadId::Spmv),
      ExtraWorkloadGenerator(ExtraWorkloadId::Fft),
      ExtraWorkloadGenerator(ExtraWorkloadId::Bfs)};
  return Generators[unsigned(Id)];
}

/// The records \p Iters compute iterations of \p Id emit on \p Pu.
uint64_t computeRecords(ExtraWorkloadId Id, PuKind Pu, uint64_t Iters) {
  switch (Id) {
  case ExtraWorkloadId::StreamTriad:
  case ExtraWorkloadId::Histogram:
    return 5 * Iters;
  case ExtraWorkloadId::Spmv: // Every 8th iteration stores y.
    return 4 * Iters + (Pu == PuKind::Cpu ? 2 : 1) * (Iters / 8);
  case ExtraWorkloadId::Fft:
    return 7 * Iters;
  case ExtraWorkloadId::Bfs: // Every 3rd iteration, from the first, stores.
    return 6 * Iters + ceilDiv(Iters, 3);
  }
  hetsim_unreachable("invalid extra workload");
}

/// The compute block of \p Id's \p Split half on \p Pu: \p Iters
/// iterations over \p Layout.
SharedTrace computeBlock(ExtraWorkloadId Id, PuKind Pu, WorkSplit Split,
                         uint64_t Iters, uint64_t Seed,
                         const KernelDataLayout &Layout) {
  GenRequest Req;
  Req.Pu = Pu;
  Req.InstCount = computeRecords(Id, Pu, Iters);
  Req.Seed = Seed;
  Req.Split = Split;
  return SharedTrace(
      std::make_shared<const BlockTrace>(generatorFor(Id), Req, Layout));
}

/// A transfer of every object moving in direction \p Dir.
ExecStep transferStep(const std::vector<DataObjectSpec> &Objects,
                      TransferDir Dir, bool Async) {
  ExecStep Step;
  Step.Kind = ExecKind::Transfer;
  Step.Dir = Dir;
  Step.Async = Async;
  for (const DataObjectSpec &Spec : Objects) {
    if (Spec.Dir != Dir)
      continue;
    Step.Objects.push_back(Spec.Name);
    Step.Bytes += Spec.Bytes;
  }
  return Step;
}

} // namespace

LoweredProgram hetsim::buildExtraWorkload(ExtraWorkloadId Id,
                                          const SystemConfig &Config,
                                          uint64_t Elements) {
  if (Elements < 64)
    fatalError("extra workload needs at least 64 elements");

  std::vector<DataObjectSpec> Objects = objectsFor(Id, Elements);
  LoweredProgram Program;
  Program.Place = placeObjects(Config.AddrSpace, Objects);

  const bool Copies =
      needsExplicitTransfer(Config.AddrSpace) && !Config.IdealComm;

  if (Copies)
    Program.Steps.push_back(transferStep(Objects, TransferDir::HostToDevice,
                                         Config.AsyncCopies));

  ExecStep Compute;
  Compute.Kind = ExecKind::ParallelCompute;
  Compute.CpuTrace = computeBlock(Id, PuKind::Cpu, WorkSplit::FirstHalf,
                                  Elements / 2, Elements,
                                  Program.Place.CpuLayout);
  Compute.GpuTrace = computeBlock(Id, PuKind::Gpu, WorkSplit::SecondHalf,
                                  (Elements - Elements / 2) / 8, Elements,
                                  Program.Place.GpuLayout);
  Program.Steps.push_back(std::move(Compute));

  if (Copies)
    Program.Steps.push_back(transferStep(Objects, TransferDir::DeviceToHost,
                                         Config.AsyncCopies));
  if (Config.AsyncCopies) {
    ExecStep Wait;
    Wait.Kind = ExecKind::DmaWait;
    Program.Steps.push_back(std::move(Wait));
  }

  // A short sequential finish over the outputs (reduce/verify pass).
  ExecStep Finish;
  Finish.Kind = ExecKind::SerialCompute;
  const uint64_t SerialOps = std::min<uint64_t>(Elements / 4, 16384);
  Finish.CpuTrace = SharedTrace(std::make_shared<const BlockTrace>(
      generatorFor(Id), 3 * SerialOps, /*Seed=*/1, Program.Place.CpuLayout));
  Program.Steps.push_back(std::move(Finish));
  return Program;
}
