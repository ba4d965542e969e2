//===- memory/ConsistencyChecker.h - Cross-PU visibility checks -*- C++ -*-===//
///
/// \file
/// A happens-before checker for the consistency models of Table I. The
/// paper classifies systems as weakly consistent, centralized-release
/// consistent, or strongly consistent; what that means operationally is
/// *which synchronization operations order cross-PU accesses*. This
/// checker consumes an event sequence (reads/writes per PU plus
/// synchronization events: release/acquire pairs, kernel launch/return,
/// barriers) and reports conflicting cross-PU accesses that are not
/// ordered by the model — i.e. data races whose outcome the memory model
/// leaves undefined.
///
/// The simulator driver uses it to validate lowered programs: under weak
/// consistency, every GPU access to an object written by the CPU must be
/// separated by a synchronization edge (which is exactly what the
/// ownership transfers / kernel boundaries provide).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_CONSISTENCYCHECKER_H
#define HETSIM_MEMORY_CONSISTENCYCHECKER_H

#include "common/Types.h"

#include <string>
#include <vector>

namespace hetsim {

/// The models of Table I's "consistency" column.
enum class ConsistencyModel : uint8_t {
  /// Cross-PU ordering only through explicit synchronization operations
  /// (release/acquire, kernel boundaries, barriers).
  Weak = 0,
  /// Release consistency with a centralized home (COMIC): releases
  /// publish to the home node; acquires pull from it. Operationally the
  /// same edges as Weak for two PUs, but releases are globally ordered.
  CentralizedRelease,
  /// Every access is globally ordered (sequential consistency): no
  /// races are "undefined", so the checker never reports.
  Strong,
};

const char *consistencyModelName(ConsistencyModel Model);

/// Kinds of events in a checked history.
enum class SyncEventKind : uint8_t {
  Read,        ///< PU reads Object.
  Write,       ///< PU writes Object.
  Release,     ///< PU releases Object (publish).
  Acquire,     ///< PU acquires Object (subscribe).
  KernelLaunch,///< CPU -> GPU control transfer (orders all prior CPU ops).
  KernelReturn,///< GPU -> CPU control transfer (orders all prior GPU ops).
  Barrier,     ///< Full two-sided synchronization on all objects.
};

/// One event. Object names scope Release/Acquire; KernelLaunch/Return
/// and Barrier ignore the object field.
struct SyncEvent {
  PuKind Pu = PuKind::Cpu;
  SyncEventKind Kind = SyncEventKind::Read;
  std::string Object;
};

/// A reported violation: a cross-PU conflicting pair with no ordering
/// edge under the model.
struct ConsistencyViolation {
  size_t EarlierIndex = 0;
  size_t LaterIndex = 0;
  std::string Object;
  std::string Description;
};

/// Checks a history against a model.
class ConsistencyChecker {
public:
  explicit ConsistencyChecker(ConsistencyModel M) : Model(M) {}

  /// Appends an event to the history.
  void addEvent(const SyncEvent &Event) { History.push_back(Event); }

  /// Convenience emitters.
  void read(PuKind Pu, const std::string &Object) {
    addEvent({Pu, SyncEventKind::Read, Object});
  }
  void write(PuKind Pu, const std::string &Object) {
    addEvent({Pu, SyncEventKind::Write, Object});
  }
  void release(PuKind Pu, const std::string &Object) {
    addEvent({Pu, SyncEventKind::Release, Object});
  }
  void acquire(PuKind Pu, const std::string &Object) {
    addEvent({Pu, SyncEventKind::Acquire, Object});
  }
  void kernelLaunch() {
    addEvent({PuKind::Cpu, SyncEventKind::KernelLaunch, ""});
  }
  void kernelReturn() {
    addEvent({PuKind::Gpu, SyncEventKind::KernelReturn, ""});
  }
  void barrier(PuKind Pu) { addEvent({Pu, SyncEventKind::Barrier, ""}); }

  /// Analyzes the history; returns all unordered conflicting cross-PU
  /// pairs (empty under Strong, or when synchronization is sufficient).
  std::vector<ConsistencyViolation> check() const;

  /// True if check() returns no violations.
  bool isRaceFree() const { return check().empty(); }

private:
  ConsistencyModel Model;
  std::vector<SyncEvent> History;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_CONSISTENCYCHECKER_H
