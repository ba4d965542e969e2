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
#include <span>
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

// Record builders, one per record kind. TraceBuffer's emitters and the
// generators' TraceEmitter both build records through them, so a kind's
// fields are filled in one place.

/// An ALU-class instruction Dst <- SrcA op SrcB.
inline TraceRecord aluRecord(Opcode Op, uint32_t Pc, uint8_t Dst,
                             uint8_t SrcA, uint8_t SrcB = NoReg) {
  assert(!isMemoryOp(Op) && !isBranchOp(Op) && "use the typed emitters");
  TraceRecord R;
  R.Op = Op;
  R.Pc = Pc;
  R.DstReg = Dst;
  R.SrcRegA = SrcA;
  R.SrcRegB = SrcB;
  return R;
}

/// A scalar load of \p Bytes at \p Address into \p Dst.
inline TraceRecord loadRecord(uint32_t Pc, uint8_t Dst, Addr Address,
                              uint16_t Bytes, uint8_t AddrReg = NoReg) {
  TraceRecord R;
  R.Op = Opcode::Load;
  R.Pc = Pc;
  R.DstReg = Dst;
  R.SrcRegA = AddrReg;
  R.MemAddr = Address;
  R.MemBytes = Bytes;
  return R;
}

/// A scalar store of \p Bytes at \p Address from \p Src.
inline TraceRecord storeRecord(uint32_t Pc, uint8_t Src, Addr Address,
                               uint16_t Bytes, uint8_t AddrReg = NoReg) {
  TraceRecord R;
  R.Op = Opcode::Store;
  R.Pc = Pc;
  R.SrcRegA = Src;
  R.SrcRegB = AddrReg;
  R.MemAddr = Address;
  R.MemBytes = Bytes;
  return R;
}

/// A conditional branch at \p Pc with outcome \p Taken, optionally
/// depending on \p CondReg.
inline TraceRecord branchRecord(uint32_t Pc, bool Taken,
                                uint8_t CondReg = NoReg) {
  TraceRecord R;
  R.Op = Opcode::Branch;
  R.Pc = Pc;
  R.SrcRegA = CondReg;
  R.IsTaken = Taken;
  return R;
}

/// A GPU warp load: \p Lanes lanes of \p BytesPerLane starting at
/// \p Address with \p StrideBytes between lanes.
inline TraceRecord simdLoadRecord(uint32_t Pc, uint8_t Dst, Addr Address,
                                  uint16_t BytesPerLane, uint8_t Lanes,
                                  uint16_t StrideBytes) {
  assert(Lanes >= 1 && Lanes <= 32 && "implausible lane count");
  TraceRecord R;
  R.Op = Opcode::Load;
  R.Pc = Pc;
  R.DstReg = Dst;
  R.MemAddr = Address;
  R.MemBytes = BytesPerLane;
  R.SimdLanes = Lanes;
  R.LaneStrideBytes = StrideBytes;
  return R;
}

/// A GPU warp store.
inline TraceRecord simdStoreRecord(uint32_t Pc, uint8_t Src, Addr Address,
                                   uint16_t BytesPerLane, uint8_t Lanes,
                                   uint16_t StrideBytes) {
  assert(Lanes >= 1 && Lanes <= 32 && "implausible lane count");
  TraceRecord R;
  R.Op = Opcode::Store;
  R.Pc = Pc;
  R.SrcRegA = Src;
  R.MemAddr = Address;
  R.MemBytes = BytesPerLane;
  R.SimdLanes = Lanes;
  R.LaneStrideBytes = StrideBytes;
  return R;
}

/// A scratchpad (software-managed cache) access. \p StrideBytes is the
/// lane stride (bank-conflict behaviour; 4 = conflict-free).
inline TraceRecord smemRecord(bool IsStore, uint32_t Pc, uint8_t Reg,
                              Addr Offset, uint16_t Bytes, uint8_t Lanes,
                              uint16_t StrideBytes) {
  TraceRecord R;
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
  return R;
}

/// A materialized trace plus convenience emitters. Generators write a
/// window's records through a TraceEmitter (trace/KernelTraceGenerator.h)
/// instead, which extends the buffer once and fills it through a cursor.
///
/// Records past size() stay constructed: a window buffer is cleared and
/// refilled once per window, and re-running the records' constructors on
/// every refill cost more than filling them.
class TraceBuffer {
public:
  TraceBuffer() = default;

  /// Pre-allocates space for \p Count records.
  void reserve(size_t Count) { Storage.reserve(Count); }

  /// Appends \p Record verbatim.
  void append(const TraceRecord &Record) { *extend(1) = Record; }

  /// Appends \p Count records of unspecified content and returns the
  /// first, for the caller to overwrite; the pointer is valid until the
  /// buffer next grows.
  TraceRecord *extend(size_t Count) {
    if (Count > Storage.size() - Size)
      Storage.resize(Size + Count);
    TraceRecord *First = Storage.data() + Size;
    Size += Count;
    return First;
  }

  /// Drops every record past the first \p Count.
  void truncate(size_t Count) {
    assert(Count <= Size && "truncate cannot grow the buffer");
    Size = Count;
  }

  // Append one record of each kind, built by the builders above.
  void emitAlu(Opcode Op, uint32_t Pc, uint8_t Dst, uint8_t SrcA,
               uint8_t SrcB = NoReg) {
    append(aluRecord(Op, Pc, Dst, SrcA, SrcB));
  }
  void emitLoad(uint32_t Pc, uint8_t Dst, Addr Address, uint16_t Bytes,
                uint8_t AddrReg = NoReg) {
    append(loadRecord(Pc, Dst, Address, Bytes, AddrReg));
  }
  void emitStore(uint32_t Pc, uint8_t Src, Addr Address, uint16_t Bytes,
                 uint8_t AddrReg = NoReg) {
    append(storeRecord(Pc, Src, Address, Bytes, AddrReg));
  }
  void emitBranch(uint32_t Pc, bool Taken, uint8_t CondReg = NoReg) {
    append(branchRecord(Pc, Taken, CondReg));
  }
  void emitSimdLoad(uint32_t Pc, uint8_t Dst, Addr Address,
                    uint16_t BytesPerLane, uint8_t Lanes,
                    uint16_t StrideBytes) {
    append(simdLoadRecord(Pc, Dst, Address, BytesPerLane, Lanes, StrideBytes));
  }
  void emitSimdStore(uint32_t Pc, uint8_t Src, Addr Address,
                     uint16_t BytesPerLane, uint8_t Lanes,
                     uint16_t StrideBytes) {
    append(
        simdStoreRecord(Pc, Src, Address, BytesPerLane, Lanes, StrideBytes));
  }
  void emitSmem(bool IsStore, uint32_t Pc, uint8_t Reg, Addr Offset,
                uint16_t Bytes, uint8_t Lanes = 1, uint16_t StrideBytes = 4) {
    append(smemRecord(IsStore, Pc, Reg, Offset, Bytes, Lanes, StrideBytes));
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const TraceRecord &operator[](size_t I) const {
    assert(I < Size && "record index past the end");
    return Storage[I];
  }

  /// The records, contiguous.
  std::span<const TraceRecord> records() const {
    return {Storage.data(), Size};
  }

  const TraceRecord *begin() const { return Storage.data(); }
  const TraceRecord *end() const { return Storage.data() + Size; }

  /// Computes the instruction-mix summary.
  TraceMix computeMix() const;

  /// Removes all records.
  void clear() { Size = 0; }

private:
  std::vector<TraceRecord> Storage; ///< Records [0, Size); spare beyond.
  size_t Size = 0;
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
