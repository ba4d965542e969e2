//===- cache/Cache.h - Set-associative write-back cache ---------*- C++ -*-===//
///
/// \file
/// A set-associative, write-back, write-allocate cache with LRU
/// replacement, per-line dirty state, and the hybrid-locality
/// management bit of Section II-B5 (one tag bit distinguishes explicitly-
/// from implicitly-managed blocks; replacement may not let implicit fills
/// evict explicit blocks).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_CACHE_H
#define HETSIM_CACHE_CACHE_H

#include "cache/CacheConfig.h"
#include "common/HostLine.h"

#include <functional>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace hetsim {

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

/// A single cache level. It and its line arrays sit on host cache lines
/// of their own (common/HostLine.h).
class alignas(HostLineBytes) Cache {
public:
  explicit Cache(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }
  const CacheStats &stats() const { return Stats; }

  /// Performs a demand access to \p Address. On a miss the line is filled
  /// (write-allocate), possibly evicting a victim. \p MarkExplicit tags the
  /// (filled or hit) line as explicitly managed (hybrid locality). The hit
  /// path is inline: every level of every memory access starts here.
  CacheAccessResult access(Addr Address, bool IsWrite,
                           bool MarkExplicit = false) {
    ++Stats.Accesses;
    const size_t I = findLine(Address);
    if (I == NoLine)
      return fill(Address, IsWrite, MarkExplicit);
    ++Stats.Hits;
    Stamps[I] = NextStamp++;
    if (IsWrite)
      Flags[I].Dirty = 1;
    if (MarkExplicit)
      Flags[I].Explicit = 1;
    CacheAccessResult Result;
    Result.Hit = true;
    return Result;
  }

  /// Returns true if \p Address is present (no state change).
  bool probe(Addr Address) const;

  /// Invalidates \p Address if present; returns true if the line was dirty
  /// (the caller owes a writeback).
  bool invalidate(Addr Address);

  /// Cleans \p Address if present (a MESI downgrade to Shared; the
  /// directory owns the coherence state); returns true if the line was
  /// dirty (a writeback is needed).
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
  /// findLine's "absent" index.
  static constexpr size_t NoLine = ~size_t(0);
  /// The tag of an invalid way. A line holds at least two bytes, so no
  /// address's tag (address >> TagShift, TagShift >= 1) is all ones.
  static constexpr Addr InvalidTag = ~Addr(0);

  /// A line's two flag bytes, kept together: a fill reads and writes both.
  struct LineFlags {
    uint8_t Dirty = 0;
    uint8_t Explicit = 0; ///< Hybrid locality's management bit.
  };

  unsigned setIndex(Addr Address) const {
    return unsigned((Address >> LineShift) & (NumSets - 1));
  }
  Addr tagOf(Addr Address) const { return Address >> TagShift; }
  /// Inverse of setIndex/tagOf: the line address of \p Tag in \p Set.
  Addr addressOf(Addr Tag, unsigned Set) const {
    return (Tag << TagShift) | (Addr(Set) << LineShift);
  }
  /// The index of \p Address's line in the per-line arrays, or NoLine.
  /// Tags alone decide: invalid ways and the padding way hold InvalidTag.
  /// The whole row is compared and the matches collected in one mask, so
  /// the only data-dependent branch is hit or miss. Rows wider than 64
  /// ways take one mask per 64 ways.
  size_t findLine(Addr Address) const {
    const size_t SetBase = size_t(setIndex(Address)) * RowWays;
    const Addr *Row = &Tags[SetBase];
    const Addr Tag = tagOf(Address);
    for (unsigned Way = 0; Way < RowWays; Way += 64) {
      const unsigned Chunk = RowWays - Way < 64 ? RowWays - Way : 64;
      const uint64_t Match = matchMask(Row + Way, Chunk, Tag);
      if (Match != 0)
        return SetBase + Way + unsigned(__builtin_ctzll(Match));
    }
    return NoLine;
  }
  /// Bit W set iff Row[W] == Tag, for an even \p Ways <= 64: two tags per
  /// 128-bit compare.
  static uint64_t matchMask(const Addr *Row, unsigned Ways, Addr Tag) {
    uint64_t Mask = 0;
#if defined(__SSE2__)
    // SSE2 has no 64-bit lane compare: a lane matches when both of its
    // 32-bit halves do.
    const __m128i Key = _mm_set1_epi64x(static_cast<long long>(Tag));
    for (unsigned W = 0; W != Ways; W += 2) {
      const __m128i Pair =
          _mm_loadu_si128(reinterpret_cast<const __m128i *>(Row + W));
      __m128i Eq = _mm_cmpeq_epi32(Pair, Key);
      Eq = _mm_and_si128(Eq, _mm_shuffle_epi32(Eq, _MM_SHUFFLE(2, 3, 0, 1)));
      Mask |= uint64_t(_mm_movemask_pd(_mm_castsi128_pd(Eq))) << W;
    }
#else
    for (unsigned W = 0; W != Ways; ++W)
      Mask |= uint64_t(Row[W] == Tag) << W;
#endif
    return Mask;
  }
  /// Clears line \p I to the invalid state.
  void invalidateLine(size_t I) {
    Tags[I] = InvalidTag;
    Stamps[I] = 0;
    Flags[I] = LineFlags();
  }
  /// The miss path of access(): victim choice, writeback, and fill.
  CacheAccessResult fill(Addr Address, bool IsWrite, bool MarkExplicit);
  /// Picks a victim way in \p SetBase..SetBase+Ways; returns -1 when an
  /// implicit fill finds only explicit blocks (bypass).
  int chooseVictim(size_t SetBase, bool FillIsExplicit);

  CacheConfig Config;
  // Per-line state, one array per field, Sets x RowWays row-major. Every
  // lookup scans a set's tags and every LRU fill a set's stamps, so each
  // is contiguous: a 32-way set's tags or stamps are 256 bytes. An odd
  // way count is padded with one way that stays invalid (InvalidTag,
  // stamp 0) and that no victim choice visits, so every geometry's rows
  // compare in whole pairs.
  HostLineVector<Addr> Tags;       ///< InvalidTag for an invalid way.
  HostLineVector<uint64_t> Stamps; ///< Last use; 0 = invalid, else unique.
  HostLineVector<LineFlags> Flags;
  CacheStats Stats;
  uint64_t NextStamp = 1;
  unsigned NumSets;
  unsigned RowWays; ///< Config.Ways rounded up to even.
  unsigned LineShift;
  unsigned TagShift; ///< LineShift + log2(NumSets).
};

} // namespace hetsim

#endif // HETSIM_CACHE_CACHE_H
