//===- trace/TraceBuffer.cpp ----------------------------------------------===//

#include "trace/TraceBuffer.h"

#include "common/Error.h"
#include "trace/ComputeBlock.h"

#include <cassert>

using namespace hetsim;

TraceMix TraceBuffer::computeMix() const {
  TraceMix Mix;
  Mix.Total = size();
  for (const TraceRecord &R : records()) {
    switch (R.Op) {
    case Opcode::Load:
      ++Mix.Loads;
      Mix.MemBytes += R.totalBytes();
      break;
    case Opcode::Store:
      ++Mix.Stores;
      Mix.MemBytes += R.totalBytes();
      break;
    case Opcode::Branch:
      ++Mix.Branches;
      break;
    case Opcode::SmemLoad:
    case Opcode::SmemStore:
      ++Mix.Smem;
      break;
    default:
      ++Mix.Alu;
      break;
    }
  }
  return Mix;
}

//===----------------------------------------------------------------------===//
// SharedTrace — out of line so the header needs only a forward declaration
// of BlockTrace.
//===----------------------------------------------------------------------===//

const TraceBuffer &SharedTrace::buffer() const {
  static const TraceBuffer Empty;
  if (Blocks)
    fatalError("SharedTrace::buffer() called on a block-backed trace; read "
               "its records window by window through BlockExpander or "
               "TraceReader");
  return Empty;
}

size_t SharedTrace::size() const {
  return Blocks ? size_t(Blocks->totalRecords()) : 0;
}
