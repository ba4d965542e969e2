//===- trace/SpecialInst.h - Table IV special instructions ------*- C++ -*-===//
///
/// \file
/// The paper's special instructions (Section IV-C, Table IV) as a typed
/// vocabulary. The lowering models programming-model effects "with a
/// series of special instructions": api-acq is an acquire/release fence on
/// the shared region, api-tr and api-pci order the moved data behind their
/// completion, lib-pf orders the faulted page, and dma-wait is the
/// copy-engine drain. Which of them a memory model needs for an object is
/// the per-model visibility table's decision (memory/FenceSemantics.h),
/// which the static race verifier (analysis/RaceDetector) consults.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_SPECIALINST_H
#define HETSIM_TRACE_SPECIALINST_H

#include "common/Types.h"

namespace hetsim {

/// The special-instruction vocabulary of Table IV plus the two control
/// transfers every lowering uses implicitly.
enum class SpecialInst : uint8_t {
  None = 0,     ///< Plain compute; no ordering effect.
  ApiPci,       ///< api-pci: PCI-E memcpy API call (disjoint spaces).
  ApiTr,        ///< api-tr: transfer through the PCI aperture (LRB).
  ApiAcq,       ///< api-acq: ownership acquire/release action (LRB).
  LibPf,        ///< lib-pf: shared-space page-fault handler (LRB).
  DmaWait,      ///< Drain of the asynchronous copy engine (GMAC).
  KernelLaunch, ///< CPU -> GPU control transfer (round start).
  KernelJoin,   ///< GPU -> CPU control transfer (round end).
};

/// Number of SpecialInst values.
inline constexpr unsigned NumSpecialInsts = 8;

/// Stable mnemonic for \p Inst ("api-acq", "dma-wait", ...).
const char *specialInstName(SpecialInst Inst);

} // namespace hetsim

#endif // HETSIM_TRACE_SPECIALINST_H
