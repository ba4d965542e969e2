//===- trace/Opcode.h - Trace instruction opcodes ---------------*- C++ -*-===//
///
/// \file
/// Opcode classes for trace records. The simulator is trace-driven (like
/// MacSim, which the paper used): it models timing, not semantics, so
/// opcodes are latency classes rather than a full ISA.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_OPCODE_H
#define HETSIM_TRACE_OPCODE_H

#include "common/Types.h"

namespace hetsim {

/// Instruction classes recognized by the core timing models.
enum class Opcode : uint8_t {
  Nop = 0,
  IntAlu,   ///< 1-cycle integer ALU op.
  IntMul,   ///< Integer multiply.
  IntDiv,   ///< Integer divide (long latency).
  FpAlu,    ///< FP add/sub/compare.
  FpMul,    ///< FP multiply.
  FpMac,    ///< Fused multiply-accumulate.
  FpDiv,    ///< FP divide (long latency).
  Load,     ///< Memory load.
  Store,    ///< Memory store.
  Branch,   ///< Conditional branch.
  SmemLoad, ///< GPU software-managed-cache (scratchpad) load.
  SmemStore,///< GPU software-managed-cache (scratchpad) store.
};

/// Number of opcode values (for latency tables).
inline constexpr unsigned NumOpcodes = 13;
static_assert(static_cast<unsigned>(Opcode::SmemStore) + 1 == NumOpcodes,
              "opcode tables are indexed by Opcode");

/// True for Load/Store/SmemLoad/SmemStore.
inline bool isMemoryOp(Opcode Op) {
  return Op == Opcode::Load || Op == Opcode::Store ||
         Op == Opcode::SmemLoad || Op == Opcode::SmemStore;
}

/// True for ops that access the cache hierarchy (not the scratchpad).
inline bool isGlobalMemoryOp(Opcode Op) {
  return Op == Opcode::Load || Op == Opcode::Store;
}

/// True for ops that write memory.
inline bool isStoreOp(Opcode Op) {
  return Op == Opcode::Store || Op == Opcode::SmemStore;
}

/// True for Branch.
inline bool isBranchOp(Opcode Op) { return Op == Opcode::Branch; }

/// Per-PU execution latencies indexed by opcode (see executeLatency()).
/// CPU latencies roughly follow Sandy Bridge; the in-order GPU pipeline
/// uses Fermi-like latencies (SIMD ops take longer but cover 8 lanes).
/// Memory and branch ops cost 1 cycle of address generation / resolution;
/// hierarchy and scratchpad time is added by the core models.
inline constexpr uint8_t ExecuteLatencyTable[NumPuKinds][NumOpcodes] = {
    // nop ialu imul idiv falu fmul fmac fdiv ld st br smem_ld smem_st
    {1, 1, 3, 20, 3, 5, 5, 14, 1, 1, 1, 1, 1}, // CPU
    {1, 1, 4, 40, 4, 4, 4, 32, 1, 1, 1, 1, 1}, // GPU
};

/// Execution latency (cycles in the owning PU's clock) of \p Op, excluding
/// any memory-hierarchy time. A table lookup: every trace record pays it.
inline Cycle executeLatency(PuKind Pu, Opcode Op) {
  return ExecuteLatencyTable[puIndex(Pu)][static_cast<unsigned>(Op)];
}

} // namespace hetsim

#endif // HETSIM_TRACE_OPCODE_H
