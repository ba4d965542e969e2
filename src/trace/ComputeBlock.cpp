//===- trace/ComputeBlock.cpp ---------------------------------------------===//

#include "trace/ComputeBlock.h"

#include <atomic>
#include <cassert>

using namespace hetsim;

static std::atomic<uint64_t> GenNanos{0};
static thread_local uint64_t TlGenNanos = 0;

uint64_t hetsim::traceGenNanos() {
  return GenNanos.load(std::memory_order_relaxed);
}

void hetsim::addTraceGenNanos(uint64_t Nanos) {
  GenNanos.fetch_add(Nanos, std::memory_order_relaxed);
  TlGenNanos += Nanos;
}

uint64_t hetsim::threadTraceGenNanos() { return TlGenNanos; }

BlockTrace::BlockTrace(KernelId Id, const GenRequest &Request,
                       const KernelDataLayout &Data)
    : K(Kind::ComputeGen), Kernel(Id), Req(Request), Layout(Data),
      Total(Request.InstCount) {}

BlockTrace::BlockTrace(KernelId Id, uint64_t InstCount, uint64_t Seed,
                       const KernelDataLayout &Data)
    : K(Kind::SerialGen), Kernel(Id), Layout(Data), Total(InstCount) {
  Req.Pu = PuKind::Cpu;
  Req.InstCount = InstCount;
  Req.Seed = Seed;
}

const TraceBuffer &BlockTrace::materialized() const {
  std::call_once(MatOnce, [this] {
    auto Buffer = std::make_unique<TraceBuffer>(
        K == Kind::ComputeGen
            ? generator().generateCompute(Req, Layout)
            : generator().generateSerial(Req.InstCount, Layout, Req.Seed));
    assert(Buffer->size() == Total && "materialization missed the total");
    Mat = std::move(Buffer);
  });
  return *Mat;
}

BlockExpander::BlockExpander(const BlockTrace &Source)
    : Block(Source), Remaining(Source.totalRecords()) {
  if (Block.kind() == BlockTrace::Kind::ComputeGen)
    Block.generator().beginCompute(S, Block.request(), Block.layout());
  else
    Block.generator().beginSerial(S, Block.layout(), Block.serialSeed());
}

uint64_t BlockExpander::next(TraceBuffer &Window, size_t Target) {
  Window.clear();
  if (Remaining == 0)
    return 0;

  TraceGenScope Timer;
  uint64_t Emitted =
      Block.kind() == BlockTrace::Kind::ComputeGen
          ? Block.generator().emitCompute(S, Block.request(), Window,
                                          Remaining, Target)
          : Block.generator().emitSerial(S, Window, Remaining, Target);
  Remaining -= Emitted;
  return Emitted;
}
