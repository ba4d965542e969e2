//===- comm/CommParams.h - Table IV communication parameters ----*- C++ -*-===//
///
/// \file
/// The communication-overhead parameters of Table IV. All latencies are in
/// CPU (3.5GHz) cycles; api-pci additionally charges bytes at the PCI-E 2.0
/// rate (16GB/s).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMM_COMMPARAMS_H
#define HETSIM_COMM_COMMPARAMS_H

#include "common/Types.h"

namespace hetsim {

/// Table IV defaults.
struct CommParams {
  /// api-pci: fixed cost of a PCI-E memcpy API call.
  Cycle ApiPciBase = 33250;
  /// trans_rate: PCI-E 2.0 payload bandwidth.
  double PciBytesPerSec = 16.0e9;
  /// api-acq: ownership acquire action (LRB).
  Cycle ApiAcquire = 1000;
  /// api-tr: data transfer through the PCI aperture (LRB).
  Cycle ApiTransfer = 7000;
  /// lib-pf: page-fault handling in the shared space (LRB).
  Cycle LibPageFault = 42000;
  /// Issue overhead of starting an asynchronous copy (GMAC).
  Cycle AsyncIssueOverhead = 500;

  /// Host buffers are pinned (page-locked). Pageable buffers force the
  /// driver to stage through an internal pinned buffer: lower effective
  /// bandwidth plus a fixed staging cost per copy. CUDA's classic
  /// pinned-vs-pageable distinction; Table IV's numbers assume pinned.
  bool PinnedHostMemory = true;
  double PageableRateFactor = 0.55;
  Cycle PageableStagingOverhead = 5000;

  /// Cycles a synchronous PCI-E copy of \p Bytes takes (honours the
  /// pinned/pageable setting).
  Cycle pciCopyCycles(uint64_t Bytes) const;
};

} // namespace hetsim

#endif // HETSIM_COMM_COMMPARAMS_H
