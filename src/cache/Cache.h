//===- cache/Cache.h - Set-associative write-back cache ---------*- C++ -*-===//
///
/// \file
/// A set-associative, write-back, write-allocate cache with pluggable
/// replacement, per-line dirty/coherence state, and the hybrid-locality
/// management bit of Section II-B5 (one tag bit distinguishes explicitly-
/// from implicitly-managed blocks; replacement may not let implicit fills
/// evict explicit blocks).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_CACHE_H
#define HETSIM_CACHE_CACHE_H

#include "cache/CacheConfig.h"
#include "common/Random.h"

#include <functional>
#include <vector>

namespace hetsim {

/// MESI coherence state of a cached line.
enum class CohState : uint8_t {
  Invalid = 0,
  Shared,
  Exclusive,
  Modified,
};

/// Result of an access or fill.
struct CacheAccessResult {
  bool Hit = false;
  /// True if the fill was refused because every candidate way holds an
  /// explicitly-managed block (HybridLru only); the access bypasses the
  /// cache.
  bool BypassedFill = false;
  /// True if a dirty line was evicted; its address is VictimAddr.
  bool WroteBack = false;
  Addr VictimAddr = 0;
};

/// Running counters for one cache instance.
struct CacheStats {
  uint64_t Accesses = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Writebacks = 0;
  uint64_t BypassedFills = 0;

  double hitRate() const {
    return Accesses == 0 ? 0.0 : double(Hits) / double(Accesses);
  }
};

/// A single cache level.
class Cache {
public:
  explicit Cache(const CacheConfig &Config, uint64_t RngSeed = 1);

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }

  /// Performs a demand access to \p Address. On a miss the line is filled
  /// (write-allocate), possibly evicting a victim. \p MarkExplicit tags the
  /// (filled or hit) line as explicitly managed (hybrid locality). The hit
  /// path is inline: every level of every memory access starts here.
  CacheAccessResult access(Addr Address, bool IsWrite,
                           bool MarkExplicit = false) {
    ++Stats.Accesses;
    Line *L = findLine(Address);
    if (!L)
      return fill(Address, IsWrite, MarkExplicit);
    ++Stats.Hits;
    L->LruStamp = NextStamp++;
    if (IsWrite) {
      L->Dirty = true;
      if (L->State == CohState::Exclusive || L->State == CohState::Shared)
        L->State = CohState::Modified;
    }
    if (MarkExplicit)
      L->Explicit = true;
    CacheAccessResult Result;
    Result.Hit = true;
    return Result;
  }

  /// Returns true if \p Address is present (no state change).
  bool probe(Addr Address) const;

  /// Returns the coherence state of \p Address (Invalid if absent).
  CohState lineState(Addr Address) const;

  /// Sets the coherence state of a present line.
  void setLineState(Addr Address, CohState State);

  /// Invalidates \p Address if present; returns true if the line was dirty
  /// (the caller owes a writeback).
  bool invalidate(Addr Address);

  /// Downgrades \p Address to Shared if present; returns true if the line
  /// was dirty (Modified -> writeback needed).
  bool downgradeToShared(Addr Address);

  /// Invalidates every line, invoking \p WritebackFn for each dirty one.
  void flushAll(const std::function<void(Addr)> &WritebackFn);

  /// Number of valid lines currently resident.
  unsigned residentLines() const;

  /// Number of explicitly-managed resident lines.
  unsigned residentExplicitLines() const;

  /// Resets statistics (contents are kept).
  void resetStats() { Stats = CacheStats(); }

private:
  /// Per-line state other than the tag, which lives in Tags.
  struct Line {
    uint64_t LruStamp = 0;
    CohState State = CohState::Invalid;
    bool Valid = false;
    bool Dirty = false;
    bool Explicit = false;
  };

  unsigned setIndex(Addr Address) const {
    return unsigned((Address >> LineShift) & (NumSets - 1));
  }
  Addr tagOf(Addr Address) const { return Address >> TagShift; }
  /// Inverse of setIndex/tagOf: the line address of \p Tag in \p Set.
  Addr addressOf(Addr Tag, unsigned Set) const {
    return (Tag << TagShift) | (Addr(Set) << LineShift);
  }
  Line *findLine(Addr Address) {
    const size_t SetBase = size_t(setIndex(Address)) * Config.Ways;
    const Addr *SetTags = &Tags[SetBase];
    const Addr Tag = tagOf(Address);
    for (unsigned W = 0; W != Config.Ways; ++W)
      if (SetTags[W] == Tag && Lines[SetBase + W].Valid)
        return &Lines[SetBase + W];
    return nullptr;
  }
  const Line *findLine(Addr Address) const {
    return const_cast<Cache *>(this)->findLine(Address);
  }
  /// The miss path of access(): victim choice, writeback, and fill.
  CacheAccessResult fill(Addr Address, bool IsWrite, bool MarkExplicit);
  /// Picks a victim way in \p SetBase..SetBase+Ways; returns -1 when an
  /// implicit fill finds only explicit blocks (bypass).
  int chooseVictim(unsigned SetBase, bool FillIsExplicit);

  CacheConfig Config;
  std::vector<Line> Lines; // Sets x Ways, row-major.
  /// Line tags, parallel to Lines. Every lookup scans a set's tags, so they
  /// are packed apart from the rest: a 32-way set is 256 contiguous bytes.
  std::vector<Addr> Tags;
  CacheStats Stats;
  XorShiftRng Rng;
  uint64_t NextStamp = 1;
  unsigned NumSets;
  unsigned LineShift;
  unsigned TagShift; ///< LineShift + log2(NumSets).
};

} // namespace hetsim

#endif // HETSIM_CACHE_CACHE_H
