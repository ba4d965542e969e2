//===- interconnect/MeshNoc.h - 2D mesh on-chip network ---------*- C++ -*-===//
///
/// \file
/// A 2D mesh with dimension-ordered (XY) routing as an alternative NoC
/// topology. Stops use the same numbering as the ring (CPU=0, GPU=1,
/// tiles 2..5, memory controller 6) laid out row-major on the grid, so
/// the memory system can swap topologies without renumbering anything.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_INTERCONNECT_MESHNOC_H
#define HETSIM_INTERCONNECT_MESHNOC_H

#include "interconnect/Interconnect.h"

#include <vector>

namespace hetsim {

/// Mesh parameters. Width*Height must cover every stop in use.
struct MeshConfig {
  unsigned Width = 3;
  unsigned Height = 3;
  Cycle HopLatency = 1;
  Cycle InjectOccupancy = 1;
  Cycle MaxQueueDelay = 64;
};

/// The mesh network.
class MeshNoc final : public Interconnect {
public:
  explicit MeshNoc(const MeshConfig &Config = MeshConfig());

  const MeshConfig &config() const { return Config; }

  const char *name() const override { return "mesh"; }

  /// Manhattan distance under XY routing.
  unsigned hopCount(unsigned From, unsigned To) const override;

  Cycle traverse(unsigned From, unsigned To, Cycle Now) override;

  Cycle uncontendedLatency(unsigned From, unsigned To) const override {
    return Cycle(hopCount(From, To)) * Config.HopLatency;
  }

  unsigned tileStopFor(Addr LineAddress) const override;

  void resetStats() override;

  /// Grid coordinates of a stop (row-major numbering).
  unsigned xOf(unsigned Stop) const { return Stop % Config.Width; }
  unsigned yOf(unsigned Stop) const { return Stop / Config.Width; }

private:
  unsigned numStops() const { return Config.Width * Config.Height; }

  MeshConfig Config;
  std::vector<Cycle> PortFree;
};

} // namespace hetsim

#endif // HETSIM_INTERCONNECT_MESHNOC_H
