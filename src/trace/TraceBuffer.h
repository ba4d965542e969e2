//===- trace/TraceBuffer.h - A materialized instruction trace ---*- C++ -*-===//
///
/// \file
/// A growable sequence of TraceRecords with emission helpers and summary
/// statistics. Kernel generators fill TraceBuffers; core models consume
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_TRACEBUFFER_H
#define HETSIM_TRACE_TRACEBUFFER_H

#include "trace/TraceRecord.h"

#include <cassert>
#include <memory>
#include <vector>

namespace hetsim {

/// Summary counts over a trace.
struct TraceMix {
  uint64_t Total = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Branches = 0;
  uint64_t Alu = 0;
  uint64_t Smem = 0;
  uint64_t MemBytes = 0;

  /// Adds \p Other's counts, so a trace's mix can be summed window by
  /// window.
  TraceMix &operator+=(const TraceMix &Other) {
    Total += Other.Total;
    Loads += Other.Loads;
    Stores += Other.Stores;
    Branches += Other.Branches;
    Alu += Other.Alu;
    Smem += Other.Smem;
    MemBytes += Other.MemBytes;
    return *this;
  }
};

/// A materialized trace plus convenience emitters used by the generators.
class TraceBuffer {
public:
  TraceBuffer() = default;

  /// Pre-allocates space for \p Count records.
  void reserve(size_t Count) { Records.reserve(Count); }

  /// Appends \p Record verbatim.
  void append(const TraceRecord &Record) { Records.push_back(Record); }

  // The emitters are inline and construct records in place: the window
  // expansion path runs them tens of millions of times per sweep, and an
  // out-of-line construct-then-push_back showed up at >10% of sweep time.

  /// Emits an ALU-class instruction Dst <- SrcA op SrcB.
  void emitAlu(Opcode Op, uint32_t Pc, uint8_t Dst, uint8_t SrcA,
               uint8_t SrcB = NoReg) {
    assert(!isMemoryOp(Op) && !isBranchOp(Op) && "use the typed emitters");
    TraceRecord &R = appendDefault();
    R.Op = Op;
    R.Pc = Pc;
    R.DstReg = Dst;
    R.SrcRegA = SrcA;
    R.SrcRegB = SrcB;
  }

  /// Emits a scalar load of \p Bytes at \p Address into \p Dst.
  void emitLoad(uint32_t Pc, uint8_t Dst, Addr Address, uint16_t Bytes,
                uint8_t AddrReg = NoReg) {
    TraceRecord &R = appendDefault();
    R.Op = Opcode::Load;
    R.Pc = Pc;
    R.DstReg = Dst;
    R.SrcRegA = AddrReg;
    R.MemAddr = Address;
    R.MemBytes = Bytes;
  }

  /// Emits a scalar store of \p Bytes at \p Address from \p Src.
  void emitStore(uint32_t Pc, uint8_t Src, Addr Address, uint16_t Bytes,
                 uint8_t AddrReg = NoReg) {
    TraceRecord &R = appendDefault();
    R.Op = Opcode::Store;
    R.Pc = Pc;
    R.SrcRegA = Src;
    R.SrcRegB = AddrReg;
    R.MemAddr = Address;
    R.MemBytes = Bytes;
  }

  /// Emits a conditional branch at \p Pc with outcome \p Taken, optionally
  /// depending on \p CondReg.
  void emitBranch(uint32_t Pc, bool Taken, uint8_t CondReg = NoReg) {
    TraceRecord &R = appendDefault();
    R.Op = Opcode::Branch;
    R.Pc = Pc;
    R.SrcRegA = CondReg;
    R.IsTaken = Taken;
  }

  /// Emits a GPU warp load: \p Lanes lanes of \p BytesPerLane starting at
  /// \p Address with \p StrideBytes between lanes.
  void emitSimdLoad(uint32_t Pc, uint8_t Dst, Addr Address,
                    uint16_t BytesPerLane, uint8_t Lanes,
                    uint16_t StrideBytes) {
    assert(Lanes >= 1 && Lanes <= 32 && "implausible lane count");
    TraceRecord &R = appendDefault();
    R.Op = Opcode::Load;
    R.Pc = Pc;
    R.DstReg = Dst;
    R.MemAddr = Address;
    R.MemBytes = BytesPerLane;
    R.SimdLanes = Lanes;
    R.LaneStrideBytes = StrideBytes;
  }

  /// Emits a GPU warp store.
  void emitSimdStore(uint32_t Pc, uint8_t Src, Addr Address,
                     uint16_t BytesPerLane, uint8_t Lanes,
                     uint16_t StrideBytes) {
    assert(Lanes >= 1 && Lanes <= 32 && "implausible lane count");
    TraceRecord &R = appendDefault();
    R.Op = Opcode::Store;
    R.Pc = Pc;
    R.SrcRegA = Src;
    R.MemAddr = Address;
    R.MemBytes = BytesPerLane;
    R.SimdLanes = Lanes;
    R.LaneStrideBytes = StrideBytes;
  }

  /// Emits a scratchpad (software-managed cache) access. \p StrideBytes
  /// is the lane stride (bank-conflict behaviour; 4 = conflict-free).
  void emitSmem(bool IsStore, uint32_t Pc, uint8_t Reg, Addr Offset,
                uint16_t Bytes, uint8_t Lanes = 1,
                uint16_t StrideBytes = 4) {
    TraceRecord &R = appendDefault();
    R.Op = IsStore ? Opcode::SmemStore : Opcode::SmemLoad;
    R.Pc = Pc;
    if (IsStore)
      R.SrcRegA = Reg;
    else
      R.DstReg = Reg;
    R.MemAddr = Offset;
    R.MemBytes = Bytes;
    R.SimdLanes = Lanes;
    R.LaneStrideBytes = StrideBytes;
  }

  size_t size() const { return Records.size(); }
  bool empty() const { return Records.empty(); }
  const TraceRecord &operator[](size_t I) const { return Records[I]; }

  const std::vector<TraceRecord> &records() const { return Records; }

  std::vector<TraceRecord>::const_iterator begin() const {
    return Records.begin();
  }
  std::vector<TraceRecord>::const_iterator end() const {
    return Records.end();
  }

  /// Computes the instruction-mix summary.
  TraceMix computeMix() const;

  /// Removes all records.
  void clear() { Records.clear(); }

private:
  TraceRecord &appendDefault() {
    Records.emplace_back();
    return Records.back();
  }

  std::vector<TraceRecord> Records;
};

class BlockTrace;

/// An immutable, shareable trace handle. Lowered programs hold their
/// traces through this. A handle holds a run-length BlockTrace — a
/// generator recipe, never records — or nothing, which is an empty trace.
/// Read its records through BlockExpander or TraceReader
/// (trace/ComputeBlock.h).
class SharedTrace {
public:
  SharedTrace() = default;

  /// Adopts a run-length block.
  SharedTrace(std::shared_ptr<const BlockTrace> Block)
      : Blocks(std::move(Block)) {}

  /// The block, or nullptr for an empty handle.
  const BlockTrace *blocks() const { return Blocks.get(); }

  size_t size() const;

  /// An empty handle as an empty buffer. A block handle has no buffer:
  /// this aborts on one.
  const TraceBuffer &buffer() const;

private:
  std::shared_ptr<const BlockTrace> Blocks;
};

} // namespace hetsim

#endif // HETSIM_TRACE_TRACEBUFFER_H
