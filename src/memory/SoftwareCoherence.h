//===- memory/SoftwareCoherence.h - Runtime coherence (GMAC) ----*- C++ -*-===//
///
/// \file
/// The software (runtime) coherence protocol of ADSM/GMAC (Section
/// II-A4, Table I "GMAC protocol"): each shared object is a coherence
/// unit with host and accelerator copies; the runtime tracks which copy
/// is valid and moves data lazily when the other side accesses a stale
/// object. This is the "purely by software coherence support" option the
/// paper contrasts with hardware coherence.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_SOFTWARECOHERENCE_H
#define HETSIM_MEMORY_SOFTWARECOHERENCE_H

#include "common/Types.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hetsim {

/// Validity of an object's two copies.
enum class SwCohState : uint8_t {
  HostValid = 0, ///< Only the host copy is current.
  AccValid,      ///< Only the accelerator copy is current.
  BothValid,     ///< Both copies current (clean shared).
};

/// Protocol statistics.
struct SwCohStats {
  uint64_t HostToDevTransfers = 0;
  uint64_t DevToHostTransfers = 0;
  uint64_t BytesMoved = 0;
  uint64_t AvoidedTransfers = 0; ///< Accesses already coherent.
};

/// Per-object runtime coherence. All objects start HostValid (the input
/// data is allocated and initialized on the CPU, Section IV-B).
class SoftwareCoherence {
public:
  /// Registers a shared object of \p Bytes. Inputs start HostValid (the
  /// host initialized them); pure outputs can start AccValid so the
  /// runtime never copies meaningless data in.
  void registerObject(const std::string &Name, uint64_t Bytes,
                      SwCohState Initial = SwCohState::HostValid);

  /// The accelerator is about to access \p Name. Returns the bytes that
  /// must move host->device first (0 if already coherent) and updates
  /// the protocol state (\p IsWrite invalidates the host copy).
  uint64_t onAccAccess(const std::string &Name, bool IsWrite);

  /// The host is about to access \p Name. Returns bytes to move
  /// device->host (0 if coherent); \p IsWrite invalidates the
  /// accelerator copy.
  uint64_t onHostAccess(const std::string &Name, bool IsWrite);

  /// The accelerator will overwrite \p Name wholesale without reading it:
  /// a write-invalidate that never copies data in.
  void onAccOverwrite(const std::string &Name);

  /// Current state of \p Name.
  SwCohState state(const std::string &Name) const;

  const SwCohStats &stats() const { return Stats; }

  /// Number of registered objects.
  size_t objectCount() const { return Objects.size(); }

private:
  struct Object {
    std::string Name;
    uint64_t Bytes;
    SwCohState State = SwCohState::HostValid;
  };

  Object &find(const std::string &Name);

  std::vector<Object> Objects;
  SwCohStats Stats;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_SOFTWARECOHERENCE_H
