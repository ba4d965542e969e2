//===- interconnect/Interconnect.h - On-chip network interface --*- C++ -*-===//
///
/// \file
/// The abstract on-chip network: the uncore (L3 tiles, memory controller)
/// is reached through stops on some topology. Table II's baseline is a
/// ring bus; a 2D mesh is provided as a design alternative (Table I's
/// "interconnection" systems), so NoC topology is one more explorable
/// axis.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_INTERCONNECT_INTERCONNECT_H
#define HETSIM_INTERCONNECT_INTERCONNECT_H

#include "common/Types.h"

#include <vector>

namespace hetsim {

/// Statistics of NoC traffic.
struct NocStats {
  uint64_t Messages = 0;
  uint64_t TotalHops = 0;
  uint64_t ContentionCycles = 0;
  uint64_t ContendedMessages = 0; ///< Messages that waited to inject.
};

/// Abstract topology.
class Interconnect {
public:
  virtual ~Interconnect();

  /// Short topology name ("ring", "mesh").
  virtual const char *name() const = 0;

  /// Hops between two stops along the routing path.
  virtual unsigned hopCount(unsigned From, unsigned To) const = 0;

  /// Sends a message at \p Now; returns arrival cycle including
  /// injection contention.
  virtual Cycle traverse(unsigned From, unsigned To, Cycle Now) = 0;

  /// One-way latency with no contention.
  virtual Cycle uncontendedLatency(unsigned From, unsigned To) const = 0;

  /// Request + reply with no contention.
  Cycle roundTripLatency(unsigned From, unsigned To) const {
    return 2 * uncontendedLatency(From, To);
  }

  /// L3 tile stop that caches \p LineAddress.
  virtual unsigned tileStopFor(Addr LineAddress) const = 0;

  const NocStats &stats() const { return Stats; }
  virtual void resetStats() = 0;

protected:
  NocStats Stats;
};

} // namespace hetsim

#endif // HETSIM_INTERCONNECT_INTERCONNECT_H
