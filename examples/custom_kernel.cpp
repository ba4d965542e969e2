//===- examples/custom_kernel.cpp - Bring your own workload ---------------===//
///
/// \file
/// Shows the lower-level public API: define a custom workload (a 5-point
/// stencil) as a trace generator, assemble an executable step sequence
/// whose compute steps are block traces of it, then run it on two design
/// points with HeteroSimulator::runLowered(). This is the path for
/// evaluating kernels beyond the paper's six.
///
/// Build & run:  ./build/examples/custom_kernel
///
//===----------------------------------------------------------------------===//

#include "core/HeteroSimulator.h"
#include "trace/ComputeBlock.h"

#include <cstdio>

using namespace hetsim;

namespace {

/// The stencil pass as a trace generator: per point, load 3 neighbours,
/// combine, store. The CPU takes the first half of the points one at a
/// time, the GPU the second half as 8-wide warps. Cursor slots: 0 = in,
/// 1 = out.
class StencilGenerator final : public KernelTraceGenerator {
public:
  StencilGenerator() : KernelTraceGenerator("5-point stencil", 0x800000) {}

protected:
  void setUpCursors(GenState &S, const KernelDataLayout &Layout,
                    WorkSplit Split) const override {
    S.Cur[0] = cursorFor(Layout.segment("in"), Split);
    S.Cur[1] = cursorFor(Layout.segment("out"), Split);
  }

  void cpuIteration(TraceEmitter &E, GenState &S) const override {
    const uint32_t Pc = pcBase();
    Addr Center = S.Cur[0].advance(4);
    uint8_t V = uint8_t(8 + S.Iter % 20);
    E.load(Pc + 0, V, Center, 4);
    E.load(Pc + 4, uint8_t(V + 1), Center + 4, 4);
    E.load(Pc + 8, uint8_t(V + 2), Center + 8, 4);
    E.alu(Opcode::FpAlu, Pc + 12, uint8_t(V + 3), V, uint8_t(V + 1));
    E.alu(Opcode::FpMac, Pc + 16, uint8_t(V + 3), uint8_t(V + 2), 6);
    E.store(Pc + 20, uint8_t(V + 3), S.Cur[1].advance(4), 4);
    E.branch(Pc + 24, /*Taken=*/true, 0);
  }

  void gpuIteration(TraceEmitter &E, GenState &S) const override {
    const uint32_t Pc = pcBase() + 0x100000;
    Addr Center = S.Cur[0].advance(32);
    uint8_t V = uint8_t(8 + S.Iter % 20);
    E.simdLoad(Pc + 0, V, Center, 4, 8, 4);
    E.simdLoad(Pc + 4, uint8_t(V + 1), Center + 4, 4, 8, 4);
    E.alu(Opcode::FpMac, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
    E.simdStore(Pc + 12, uint8_t(V + 2), S.Cur[1].advance(32), 4, 8, 4);
    E.branch(Pc + 16, /*Taken=*/true, 0);
  }
};

/// A block trace of \p Records records of the stencil on \p Pu over its
/// \p Split half of \p Layout.
SharedTrace stencilBlock(PuKind Pu, WorkSplit Split, uint64_t Records,
                         const KernelDataLayout &Layout) {
  static const StencilGenerator Stencil;
  GenRequest Req;
  Req.Pu = Pu;
  Req.InstCount = Records;
  Req.Split = Split;
  return SharedTrace(std::make_shared<const BlockTrace>(Stencil, Req, Layout));
}

/// Assembles a lowered program: copy in, compute on both PUs, copy out.
LoweredProgram makeStencilProgram(const SystemConfig &Config,
                                  uint64_t Points) {
  const uint64_t Bytes = Points * 4;
  LoweredProgram Program;

  // Place input and output according to the configured address space;
  // under a disjoint space the GPU works on duplicated buffers in its own
  // region.
  const bool Disjoint = Config.AddrSpace == AddressSpaceKind::Disjoint;
  const Addr Base = Disjoint ? region::CpuPrivateBase : region::SharedBase;
  auto Place = [&](KernelDataLayout &Layout, Addr At) {
    Layout.addSegment({"in", At, Bytes + 64, TransferDir::HostToDevice});
    Layout.addSegment(
        {"out", At + Bytes + 4096, Bytes, TransferDir::DeviceToHost});
  };
  Place(Program.Place.CpuLayout, Base);
  Place(Program.Place.GpuLayout, Disjoint ? region::GpuPrivateBase : Base);

  auto Copy = [&](TransferDir Dir, const char *Object) {
    ExecStep Step;
    Step.Kind = ExecKind::Transfer;
    Step.Bytes = Bytes;
    Step.Dir = Dir;
    Step.Objects = {Object};
    Program.Steps.push_back(std::move(Step));
  };
  if (Disjoint)
    Copy(TransferDir::HostToDevice, "in");

  const uint64_t Half = Points / 2;

  ExecStep Compute;
  Compute.Kind = ExecKind::ParallelCompute;
  // 7 records per CPU point, 5 per GPU warp of 8 points.
  Compute.CpuTrace = stencilBlock(PuKind::Cpu, WorkSplit::FirstHalf, 7 * Half,
                                  Program.Place.CpuLayout);
  Compute.GpuTrace = stencilBlock(PuKind::Gpu, WorkSplit::SecondHalf,
                                  5 * (Half / 8), Program.Place.GpuLayout);
  Program.Steps.push_back(std::move(Compute));

  if (Disjoint)
    Copy(TransferDir::DeviceToHost, "out");
  return Program;
}

} // namespace

int main() {
  const uint64_t Points = 256 * 1024; // 1MB of f32 points.
  std::printf("Custom 5-point stencil over %llu points on two design "
              "points:\n\n",
              (unsigned long long)Points);

  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::IdealHetero}) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    HeteroSimulator Sim(Config);
    LoweredProgram Program = makeStencilProgram(Config, Points);
    RunResult R = Sim.runLowered(Program);
    std::printf("  %-14s total %8.1f us (par %8.1f, comm %6.1f)  "
                "CPU IPC %.2f, GPU mem accesses %llu\n",
                Config.Name.c_str(), R.Time.totalNs() / 1e3,
                R.Time.ParallelNs / 1e3, R.Time.CommunicationNs / 1e3,
                R.CpuTotal.ipc(),
                (unsigned long long)R.GpuTotal.MemAccesses);
  }

  std::printf("\nThe same trace-level API accepts any workload: emit "
              "records with\nTraceBuffer, wrap them in ExecSteps, and run "
              "them on any SystemConfig.\n");
  return 0;
}
