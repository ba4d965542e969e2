//===- cpu/BranchPredictor.h - gshare branch predictor ----------*- C++ -*-===//
///
/// \file
/// The gshare predictor of Table II: a table of 2-bit saturating counters
/// indexed by PC xor global history.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CPU_BRANCHPREDICTOR_H
#define HETSIM_CPU_BRANCHPREDICTOR_H

#include "common/Types.h"

#include <vector>

namespace hetsim {

/// Prediction statistics.
struct BranchStats {
  uint64_t Predictions = 0;
  uint64_t Mispredictions = 0;

  double accuracy() const {
    return Predictions == 0
               ? 1.0
               : 1.0 - double(Mispredictions) / double(Predictions);
  }
};

/// gshare: global history xor PC indexes a pattern history table.
class GsharePredictor {
public:
  /// \p TableBits selects 2^TableBits two-bit counters.
  explicit GsharePredictor(unsigned TableBits = 12);

  /// Updates predictor state with the actual outcome; returns true if the
  /// prediction was correct.
  bool update(Addr Pc, bool Taken);

  const BranchStats &stats() const { return Stats; }

private:
  unsigned index(Addr Pc) const;

  unsigned TableBits;
  std::vector<uint8_t> Counters; ///< 2-bit saturating counters.
  uint64_t History = 0;
  BranchStats Stats;
};

} // namespace hetsim

#endif // HETSIM_CPU_BRANCHPREDICTOR_H
