//===- core/SystemDescriptor.h - Table I system survey ----------*- C++ -*-===//
///
/// \file
/// The qualitative survey of Table I: previously proposed heterogeneous
/// computing systems and their memory-system classification along the
/// design-space axes, plus Rigel as the homogeneous comparison point.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_SYSTEMDESCRIPTOR_H
#define HETSIM_CORE_SYSTEMDESCRIPTOR_H

#include "core/DesignSpace.h"

#include <string>
#include <vector>

namespace hetsim {

/// One row of Table I.
struct SystemDescriptor {
  std::string Scheme;       ///< System name ("CPU+CUDA*", "GMAC", ...).
  AddressSpaceKind AddrSpace;
  ConnectionKind Connection;
  CoherenceKind Coherence;
  std::string SharedDataUse; ///< "how to use shared data".
  ConsistencyKind Consistency;
  std::string Synchronization;
  std::string Locality;     ///< Locality string as Table I prints it.
};

/// Returns all Table I rows in the paper's order.
const std::vector<SystemDescriptor> &tableOneSurvey();

/// Counts survey rows with the given address space — the paper observes
/// most existing systems are disjoint and none is unified + fully
/// coherent + strongly consistent.
unsigned surveyCount(AddressSpaceKind Kind);

/// Returns true if any surveyed system is simultaneously unified, fully
/// hardware-coherent, and strongly consistent (the paper: none is).
bool surveyHasUnifiedFullyCoherentStrong();

} // namespace hetsim

#endif // HETSIM_CORE_SYSTEMDESCRIPTOR_H
