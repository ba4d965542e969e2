//===- core/ConsistencyValidation.h - Lowered-program races ----*- C++ -*-===//
///
/// \file
/// Replays lowered programs as synchronization histories and checks them
/// against a consistency model (Table I's consistency column). All the
/// evaluated systems are weakly consistent: cross-PU visibility is only
/// guaranteed through the synchronization the lowering inserted (kernel
/// launch/join, ownership transfers, runtime copies). A lowering bug
/// that, say, dropped the join after a GPU round would show up here as a
/// data race, not as a silently wrong timing number.
///
/// Compute accesses are modeled at split-object granularity: each data
/// object contributes a ".cpu" and ".gpu" sub-object matching the work
/// split, so the two PUs writing their own halves does not alias.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_CONSISTENCYVALIDATION_H
#define HETSIM_CORE_CONSISTENCYVALIDATION_H

#include "core/Lowering.h"
#include "memory/ConsistencyChecker.h"

namespace hetsim {

/// Replays \p Program into a checker under \p Model.
ConsistencyChecker buildSyncHistory(const LoweredProgram &Program,
                                    ConsistencyModel Model);

/// True if \p Program has no cross-PU races under \p Model.
bool validateRaceFree(const LoweredProgram &Program,
                      ConsistencyModel Model = ConsistencyModel::Weak);

} // namespace hetsim

#endif // HETSIM_CORE_CONSISTENCYVALIDATION_H
