//===- interconnect/RingBus.h - Ring-bus on-chip network --------*- C++ -*-===//
///
/// \file
/// The ring-bus network of Table II connecting the CPU, the GPU, the four
/// L3 tiles, and the memory controller. Messages travel the shorter ring
/// direction, one cycle per hop, and each stop's injection port serializes
/// back-to-back messages (simple occupancy-based contention).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_INTERCONNECT_RINGBUS_H
#define HETSIM_INTERCONNECT_RINGBUS_H

#include "interconnect/Interconnect.h"

#include <vector>

namespace hetsim {

/// Historical alias: ring code predates the Interconnect interface.
using RingStats = NocStats;

/// Well-known ring stops for the baseline system. The ring itself is
/// topology-agnostic; these constants document the baseline layout:
/// CPU, GPU, 4 L3 tiles, memory controller.
namespace ring {
inline constexpr unsigned CpuStop = 0;
inline constexpr unsigned GpuStop = 1;
inline constexpr unsigned L3Tile0 = 2; // Tiles occupy stops 2..5.
inline constexpr unsigned MemCtrlStop = 6;
inline constexpr unsigned BaselineStops = 7;
} // namespace ring

/// Ring parameters.
struct RingConfig {
  unsigned NumStops = ring::BaselineStops;
  Cycle HopLatency = 1;      ///< Cycles per hop.
  Cycle InjectOccupancy = 1; ///< Cycles a message occupies its source port.
  /// Cap on the injection-queue delay one message can inherit (see
  /// DramConfig::MaxQueueDelay for the rationale).
  Cycle MaxQueueDelay = 64;
};

/// The ring network.
class RingBus final : public Interconnect {
public:
  explicit RingBus(const RingConfig &Config = RingConfig());

  const RingConfig &config() const { return Config; }

  const char *name() const override { return "ring"; }

  /// Minimal hop count between two stops (shorter direction).
  unsigned hopCount(unsigned From, unsigned To) const override;

  /// Sends a message from \p From to \p To at \p Now; returns its arrival
  /// cycle including injection contention.
  Cycle traverse(unsigned From, unsigned To, Cycle Now) override;

  Cycle uncontendedLatency(unsigned From, unsigned To) const override {
    return Cycle(hopCount(From, To)) * Config.HopLatency;
  }

  /// L3 tile stop that caches \p LineAddress (line-interleaved).
  unsigned tileStopFor(Addr LineAddress) const override;

  void resetStats() override;

private:
  RingConfig Config;
  std::vector<Cycle> PortFree; // Next free cycle of each injection port.
};

} // namespace hetsim

#endif // HETSIM_INTERCONNECT_RINGBUS_H
