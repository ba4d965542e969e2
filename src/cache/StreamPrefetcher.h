//===- cache/StreamPrefetcher.h - Stride/stream prefetcher ------*- C++ -*-===//
///
/// \file
/// A classic table-based stream prefetcher. It watches the miss/access
/// stream at one cache level, detects constant-stride streams, and once
/// confident issues prefetches Degree lines ahead. Disabled by default in
/// the baseline (Table II has no prefetcher); an ablation quantifies what
/// it buys the streaming kernels.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_STREAMPREFETCHER_H
#define HETSIM_CACHE_STREAMPREFETCHER_H

#include "common/Types.h"

#include <vector>

namespace hetsim {

/// Prefetcher parameters.
struct PrefetcherConfig {
  unsigned NumStreams = 8;   ///< Tracked concurrent streams.
  unsigned Degree = 2;       ///< Lines prefetched ahead per trigger.
  unsigned MinConfidence = 2; ///< Stride repeats before issuing.
  uint64_t MatchWindowBytes = 4096; ///< Stream-matching proximity.
};

/// Prefetcher statistics.
struct PrefetcherStats {
  uint64_t Lookups = 0;
  uint64_t StreamAllocations = 0;
  uint64_t PrefetchesIssued = 0;
};

/// The stream table.
class StreamPrefetcher {
public:
  explicit StreamPrefetcher(const PrefetcherConfig &Config = {});

  /// Observes a demand access to \p LineAddress and returns the line
  /// addresses to prefetch (empty while training).
  std::vector<Addr> onAccess(Addr LineAddress);

  const PrefetcherStats &stats() const { return Stats; }
  const PrefetcherConfig &config() const { return Config; }

private:
  struct Stream {
    Addr LastLine = 0;
    int64_t StrideLines = 0;
    unsigned Confidence = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
  };

  PrefetcherConfig Config;
  PrefetcherStats Stats;
  std::vector<Stream> Streams;
  uint64_t UseClock = 0;
};

} // namespace hetsim

#endif // HETSIM_CACHE_STREAMPREFETCHER_H
