//===- cache/CacheConfig.h - Cache geometry and timing ----------*- C++ -*-===//
///
/// \file
/// Geometry/latency description of one cache. Table II latencies come from
/// CACTI 6.5 in the paper; we take the table values directly.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_CACHECONFIG_H
#define HETSIM_CACHE_CACHECONFIG_H

#include "common/Types.h"

#include <string>

namespace hetsim {

/// Replacement policies supported by Cache.
enum class ReplacementKind : uint8_t {
  Lru,
  /// LRU with the hybrid locality rule of Section II-B5: an
  /// implicitly-managed fill may not evict an explicitly-managed block, and
  /// explicit blocks are capped below the full cache size.
  HybridLru,
};

/// Geometry and timing of one cache level.
struct CacheConfig {
  std::string Name = "cache";
  uint64_t SizeBytes = 32 * 1024;
  unsigned Ways = 8;
  unsigned LineBytes = CacheLineBytes;
  Cycle HitLatency = 2;
  ReplacementKind Replacement = ReplacementKind::Lru;

  /// For HybridLru: maximum explicitly-managed ways per set. Section II-B5
  /// requires the explicitly managed size to be smaller than the physical
  /// cache, so the default leaves one way for implicit blocks.
  unsigned MaxExplicitWays = 0; // 0 = Ways - 1.

  /// Number of sets implied by the geometry.
  unsigned numSets() const {
    return unsigned(SizeBytes / (uint64_t(Ways) * LineBytes));
  }

  /// Validates the geometry (power-of-two sets, nonzero ways, lines of at
  /// least two bytes).
  bool isValid() const {
    if (SizeBytes == 0 || Ways == 0 || LineBytes < 2)
      return false;
    if (SizeBytes % (uint64_t(Ways) * LineBytes) != 0)
      return false;
    return isPowerOf2(numSets()) && isPowerOf2(LineBytes);
  }

  /// Named presets from Table II.
  static CacheConfig cpuL1D();
  static CacheConfig cpuL1I();
  static CacheConfig cpuL2();
  static CacheConfig gpuL1D();
  static CacheConfig sharedL3();
};

} // namespace hetsim

#endif // HETSIM_CACHE_CACHECONFIG_H
