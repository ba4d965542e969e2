//===- trace/ComputeBlock.cpp ---------------------------------------------===//

#include "trace/ComputeBlock.h"

#include <algorithm>
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

void hetsim::creditThreadTraceGenNanos(uint64_t Nanos) { TlGenNanos += Nanos; }

BlockTrace::BlockTrace(const KernelTraceGenerator &Gen,
                       const GenRequest &Request,
                       const KernelDataLayout &Data)
    : K(Kind::ComputeGen), Generator(&Gen), Req(Request), Layout(Data) {}

BlockTrace::BlockTrace(const KernelTraceGenerator &Gen, uint64_t InstCount,
                       uint64_t Seed, const KernelDataLayout &Data)
    : K(Kind::SerialGen), Generator(&Gen), Layout(Data) {
  Req.Pu = PuKind::Cpu;
  Req.InstCount = InstCount;
  Req.Seed = Seed;
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

TraceReader::TraceReader(const SharedTrace &Trace) : Remaining(Trace.size()) {
  if (const BlockTrace *Block = Trace.blocks())
    Expander.emplace(*Block);
}

const TraceRecord *TraceReader::take(size_t Count) {
  assert(Count != 0 && Count <= Remaining && "span past the end of the trace");
  Remaining -= Count;
  if (Pos == Window.size()) {
    Expander->next(Window);
    Pos = 0;
  }
  if (Window.size() - Pos >= Count) {
    const TraceRecord *Span = Window.begin() + Pos;
    Pos += Count;
    return Span;
  }

  // The span straddles windows: carry the tail over and join it with as
  // many fresh windows as it takes.
  Joined.assign(Window.begin() + Pos, Window.end());
  while (Joined.size() < Count) {
    Expander->next(Window);
    assert(!Window.empty() && "block expanded short of its total");
    Pos = std::min(Count - Joined.size(), Window.size());
    Joined.insert(Joined.end(), Window.begin(), Window.begin() + Pos);
  }
  return Joined.data();
}
