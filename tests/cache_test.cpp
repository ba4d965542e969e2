//===- tests/cache_test.cpp - cache/ unit tests ---------------------------===//

#include "cache/Cache.h"
#include "cache/Directory.h"
#include "cache/Mshr.h"
#include "cache/Scratchpad.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace hetsim;

namespace {
/// A small cache for focused tests: 4 sets x 2 ways x 64B = 512B.
CacheConfig tinyCache(ReplacementKind Replacement = ReplacementKind::Lru) {
  CacheConfig Config;
  Config.Name = "tiny";
  Config.SizeBytes = 512;
  Config.Ways = 2;
  Config.HitLatency = 2;
  Config.Replacement = Replacement;
  return Config;
}

/// Address mapping to set S with tag T for the tiny cache (4 sets, 64B
/// lines): addr = T * 256 + S * 64.
Addr tinyAddr(unsigned Set, unsigned Tag) {
  return Addr(Tag) * 256 + Addr(Set) * 64;
}
} // namespace

//===----------------------------------------------------------------------===//
// Geometry.
//===----------------------------------------------------------------------===//

TEST(CacheConfig, TableTwoPresets) {
  EXPECT_EQ(CacheConfig::cpuL1D().SizeBytes, 32u * 1024);
  EXPECT_EQ(CacheConfig::cpuL1D().Ways, 8u);
  EXPECT_EQ(CacheConfig::cpuL1D().HitLatency, 2u);
  EXPECT_EQ(CacheConfig::cpuL2().SizeBytes, 256u * 1024);
  EXPECT_EQ(CacheConfig::cpuL2().HitLatency, 8u);
  EXPECT_EQ(CacheConfig::sharedL3().SizeBytes, 8u * 1024 * 1024);
  EXPECT_EQ(CacheConfig::sharedL3().Ways, 32u);
  EXPECT_EQ(CacheConfig::sharedL3().HitLatency, 20u);
}

TEST(CacheConfig, Validation) {
  EXPECT_TRUE(tinyCache().isValid());
  CacheConfig Bad = tinyCache();
  Bad.SizeBytes = 500; // Not ways*lines multiple.
  EXPECT_FALSE(Bad.isValid());
}

TEST(CacheConfig, NumSets) {
  EXPECT_EQ(tinyCache().numSets(), 4u);
  EXPECT_EQ(CacheConfig::sharedL3().numSets(), 4096u);
}

//===----------------------------------------------------------------------===//
// Basic hit/miss and LRU.
//===----------------------------------------------------------------------===//

TEST(Cache, MissThenHit) {
  Cache C(tinyCache());
  EXPECT_FALSE(C.access(tinyAddr(0, 1), false).Hit);
  EXPECT_TRUE(C.access(tinyAddr(0, 1), false).Hit);
  EXPECT_EQ(C.stats().Accesses, 2u);
  EXPECT_EQ(C.stats().Hits, 1u);
  EXPECT_EQ(C.stats().Misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  Cache C(tinyCache());
  C.access(tinyAddr(0, 1), false);
  EXPECT_TRUE(C.access(tinyAddr(0, 1) + 32, false).Hit);
}

TEST(Cache, LruEviction) {
  Cache C(tinyCache());
  C.access(tinyAddr(2, 1), false); // Fill way 0.
  C.access(tinyAddr(2, 2), false); // Fill way 1.
  C.access(tinyAddr(2, 1), false); // Touch tag 1 (tag 2 is now LRU).
  C.access(tinyAddr(2, 3), false); // Evicts tag 2.
  EXPECT_TRUE(C.probe(tinyAddr(2, 1)));
  EXPECT_FALSE(C.probe(tinyAddr(2, 2)));
  EXPECT_TRUE(C.probe(tinyAddr(2, 3)));
}

TEST(Cache, SetsAreIndependent) {
  Cache C(tinyCache());
  C.access(tinyAddr(0, 1), false);
  C.access(tinyAddr(1, 1), false);
  C.access(tinyAddr(2, 1), false);
  EXPECT_EQ(C.stats().Evictions, 0u);
  EXPECT_EQ(C.residentLines(), 3u);
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache C(tinyCache());
  C.access(tinyAddr(1, 1), /*IsWrite=*/true);
  C.access(tinyAddr(1, 2), false);
  CacheAccessResult R = C.access(tinyAddr(1, 3), false); // Evicts dirty tag 1.
  EXPECT_TRUE(R.WroteBack);
  EXPECT_EQ(R.VictimAddr, tinyAddr(1, 1));

  // The victim address is rebuilt from tag and set: check it on the
  // Table II L3 too (4096 sets, 32 ways), at a high address.
  Cache L3(CacheConfig::sharedL3());
  const Addr SetStride = Addr(4096) * 64;
  const Addr Dirty = 0x9123456780ull + 7 * 64;
  L3.access(Dirty, /*IsWrite=*/true);
  for (Addr Way = 1; Way != 32; ++Way)
    EXPECT_FALSE(L3.access(Dirty + Way * SetStride, false).WroteBack);
  R = L3.access(Dirty + 32 * SetStride, false);
  EXPECT_TRUE(R.WroteBack);
  EXPECT_EQ(R.VictimAddr, Dirty);
  EXPECT_EQ(C.stats().Writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache C(tinyCache());
  C.access(tinyAddr(1, 1), false);
  C.access(tinyAddr(1, 2), false);
  CacheAccessResult R = C.access(tinyAddr(1, 3), false);
  EXPECT_FALSE(R.WroteBack);
  EXPECT_EQ(C.stats().Evictions, 1u);
}

TEST(Cache, WriteMarksDirtyOnHit) {
  Cache C(tinyCache());
  C.access(tinyAddr(3, 1), false);          // Clean fill.
  C.access(tinyAddr(3, 1), /*IsWrite=*/true); // Dirty on hit.
  C.access(tinyAddr(3, 2), false);
  CacheAccessResult R = C.access(tinyAddr(3, 4), false); // Evict tag 1.
  EXPECT_TRUE(R.WroteBack);
}

TEST(Cache, InvalidateReturnsDirty) {
  Cache C(tinyCache());
  C.access(tinyAddr(0, 1), true);
  EXPECT_TRUE(C.invalidate(tinyAddr(0, 1)));
  EXPECT_FALSE(C.probe(tinyAddr(0, 1)));
  EXPECT_FALSE(C.invalidate(tinyAddr(0, 1))); // Already gone.
}

TEST(Cache, DowngradeToShared) {
  Cache C(tinyCache());
  C.access(tinyAddr(0, 1), true);
  EXPECT_TRUE(C.downgradeToShared(tinyAddr(0, 1)));
  EXPECT_TRUE(C.probe(tinyAddr(0, 1)));              // Still resident.
  EXPECT_FALSE(C.downgradeToShared(tinyAddr(0, 1))); // Now clean.
  EXPECT_FALSE(C.invalidate(tinyAddr(0, 1)));        // No writeback owed.
}

TEST(Cache, FlushAllWritesBackDirtyLines) {
  Cache C(tinyCache());
  C.access(tinyAddr(0, 1), true);
  C.access(tinyAddr(1, 1), false);
  C.access(tinyAddr(2, 1), true);
  std::vector<Addr> Written;
  C.flushAll([&Written](Addr A) { Written.push_back(A); });
  EXPECT_EQ(Written.size(), 2u);
  EXPECT_EQ(C.residentLines(), 0u);
}

//===----------------------------------------------------------------------===//
// Hybrid locality replacement (Section II-B5).
//===----------------------------------------------------------------------===//

TEST(CacheHybrid, ImplicitCannotEvictExplicit) {
  Cache C(tinyCache(ReplacementKind::HybridLru));
  // Fill way 0 explicit, way 1 implicit.
  C.access(tinyAddr(0, 1), false, /*MarkExplicit=*/true);
  C.access(tinyAddr(0, 2), false, /*MarkExplicit=*/false);
  // An implicit fill must evict the implicit line (tag 2) even though the
  // explicit line (tag 1) is older (LRU).
  C.access(tinyAddr(0, 3), false, /*MarkExplicit=*/false);
  EXPECT_TRUE(C.probe(tinyAddr(0, 1)));
  EXPECT_FALSE(C.probe(tinyAddr(0, 2)));
  EXPECT_TRUE(C.probe(tinyAddr(0, 3)));
}

TEST(CacheHybrid, ExplicitCapLeavesImplicitRoom) {
  // MaxExplicitWays defaults to Ways-1 = 1: a second explicit fill in the
  // same set must replace the first explicit line, not the implicit one.
  Cache C(tinyCache(ReplacementKind::HybridLru));
  C.access(tinyAddr(0, 1), false, true);  // Explicit.
  C.access(tinyAddr(0, 2), false, false); // Implicit.
  C.access(tinyAddr(0, 3), false, true);  // Explicit; evicts tag 1.
  EXPECT_FALSE(C.probe(tinyAddr(0, 1)));
  EXPECT_TRUE(C.probe(tinyAddr(0, 2)));
  EXPECT_TRUE(C.probe(tinyAddr(0, 3)));
  EXPECT_EQ(C.residentExplicitLines(), 1u);
}

TEST(CacheHybrid, BypassWhenAllWaysExplicit) {
  CacheConfig Config = tinyCache(ReplacementKind::HybridLru);
  Config.MaxExplicitWays = 2; // Allow explicit to fill the whole set.
  Cache C(Config);
  C.access(tinyAddr(0, 1), false, true);
  C.access(tinyAddr(0, 2), false, true);
  // Implicit fill finds no candidate way: the access bypasses the cache.
  CacheAccessResult R = C.access(tinyAddr(0, 3), false, false);
  EXPECT_FALSE(R.Hit);
  EXPECT_TRUE(R.BypassedFill);
  EXPECT_FALSE(C.probe(tinyAddr(0, 3)));
  EXPECT_EQ(C.stats().BypassedFills, 1u);
}

TEST(CacheHybrid, HitMayPromoteToExplicit) {
  Cache C(tinyCache(ReplacementKind::HybridLru));
  C.access(tinyAddr(1, 1), false, false);
  C.access(tinyAddr(1, 1), false, true); // Promote on hit.
  EXPECT_EQ(C.residentExplicitLines(), 1u);
}

TEST(CacheHybrid, PlainLruIgnoresExplicitBit) {
  Cache C(tinyCache(ReplacementKind::Lru));
  C.access(tinyAddr(0, 1), false, true);  // Explicit, LRU.
  C.access(tinyAddr(0, 2), false, false);
  C.access(tinyAddr(0, 3), false, false); // Evicts tag 1 despite explicit.
  EXPECT_FALSE(C.probe(tinyAddr(0, 1)));
}

//===----------------------------------------------------------------------===//
// MSHR.
//===----------------------------------------------------------------------===//

TEST(Mshr, EachMissTakesItsOwnFill) {
  // Two misses in flight at once each hold an entry until their own fill
  // completes, the second's (60) earlier than the first's (110): a third
  // miss on the two-entry file waits for the second fill only.
  MshrFile Mshr(2);
  EXPECT_EQ(Mshr.onMiss(10, 110), 0u);
  EXPECT_EQ(Mshr.onMiss(20, 60), 0u);
  EXPECT_EQ(Mshr.onMiss(30, 130), 30u);
  EXPECT_EQ(Mshr.fullStallCount(), 1u);
}

TEST(Mshr, DistinctLinesAllocate) {
  // Two misses take both entries of a two-entry file: a third at cycle
  // 50 waits for the first fill.
  MshrFile Mshr(2);
  EXPECT_EQ(Mshr.onMiss(0, 100), 0u);
  EXPECT_EQ(Mshr.onMiss(0, 100), 0u);
  EXPECT_EQ(Mshr.onMiss(50, 150), 50u);
  EXPECT_EQ(Mshr.fullStallCount(), 1u);
}

TEST(Mshr, EntriesExpire) {
  // The fill completes at 100, so at 100 the one-entry file is free.
  MshrFile Mshr(1);
  Mshr.onMiss(0, 100);
  EXPECT_EQ(Mshr.onMiss(100, 200), 0u);
  EXPECT_EQ(Mshr.onMiss(200, 300), 0u); // Old entry expired; new fill.
  EXPECT_EQ(Mshr.fullStallCount(), 0u);
}

TEST(Mshr, FullFileStalls) {
  MshrFile Mshr(2);
  Mshr.onMiss(0, 100);
  Mshr.onMiss(0, 150);
  EXPECT_EQ(Mshr.onMiss(10, 210), 90u); // Waits for the 100-cycle fill.
  EXPECT_EQ(Mshr.fullStallCount(), 1u);
}

TEST(Mshr, ClearResets) {
  // Every run builds a fresh machine: a new file holds no fill.
  MshrFile Mshr(1);
  Mshr.onMiss(0, 100);
  Mshr = MshrFile(1);
  EXPECT_EQ(Mshr.onMiss(0, 100), 0u);
  EXPECT_EQ(Mshr.fullStallCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Scratchpad.
//===----------------------------------------------------------------------===//

TEST(Scratchpad, FixedLatencyAndCounters) {
  // One lane: a scalar access, which pays the base latency.
  Scratchpad Smem(16 * 1024, 2);
  EXPECT_EQ(Smem.warpAccess(0, 4, 1, 0, false), 2u);
  EXPECT_EQ(Smem.warpAccess(16 * 1024 - 4, 4, 1, 0, true), 2u);
  EXPECT_EQ(Smem.readCount(), 1u);
  EXPECT_EQ(Smem.writeCount(), 1u);
}

TEST(ScratchpadDeath, OutOfBoundsAborts) {
  Scratchpad Smem(1024, 2);
  EXPECT_DEATH(Smem.warpAccess(1024, 4, 1, 0, false), "out of bounds");
}

TEST(Scratchpad, WordStrideIsConflictFree) {
  Scratchpad Smem(16 * 1024, 2, 16);
  // 8 lanes, 4B stride: each lane a different bank.
  EXPECT_EQ(Smem.conflictDegree(0, 8, 4), 1u);
  EXPECT_EQ(Smem.warpAccess(0, 4, 8, 4, false), 2u);
  EXPECT_EQ(Smem.bankConflictCount(), 0u);
}

TEST(Scratchpad, BankStrideFullyConflicts) {
  Scratchpad Smem(16 * 1024, 2, 16);
  // Stride of 64B = 16 words: every lane lands in bank 0.
  EXPECT_EQ(Smem.conflictDegree(0, 8, 64), 8u);
  EXPECT_EQ(Smem.warpAccess(0, 4, 8, 64, false), 16u); // 2 * 8-way.
  EXPECT_EQ(Smem.bankConflictCount(), 7u);
}

TEST(Scratchpad, TwoWayConflict) {
  Scratchpad Smem(16 * 1024, 2, 16);
  // Stride of 32B = 8 words: lanes pair up per bank (8 lanes, 8 banks
  // hit twice... lanes at words 0,8,16,24,...: banks 0,8,0,8 -> 4-way).
  EXPECT_EQ(Smem.conflictDegree(0, 8, 32), 4u);
}

TEST(Scratchpad, BroadcastSameWordIsFree) {
  Scratchpad Smem(16 * 1024, 2, 16);
  // Stride 0: all lanes read the same word (broadcast).
  EXPECT_EQ(Smem.conflictDegree(0, 8, 0), 1u);
  EXPECT_EQ(Smem.warpAccess(128, 4, 8, 0, false), 2u);
}

TEST(ScratchpadDeath, WarpOutOfBoundsAborts) {
  Scratchpad Smem(1024, 2, 16);
  EXPECT_DEATH(Smem.warpAccess(1000, 4, 8, 4, false), "out of bounds");
}

//===----------------------------------------------------------------------===//
// MESI directory.
//===----------------------------------------------------------------------===//

TEST(Directory, FirstReadIsExclusive) {
  Directory Dir;
  CoherenceAction A = Dir.onAccess(PuKind::Cpu, 0x40, false);
  EXPECT_FALSE(A.InvalidateRemote);
  EXPECT_FALSE(A.FetchFromRemote);
  EXPECT_EQ(Dir.state(0x40), DirState::ExclusiveCpu);
}

TEST(Directory, ReadSharingCleanLine) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, false);
  CoherenceAction A = Dir.onAccess(PuKind::Gpu, 0x40, false);
  EXPECT_FALSE(A.FetchFromRemote); // Clean: memory supplies data.
  EXPECT_EQ(Dir.state(0x40), DirState::SharedBoth);
  EXPECT_TRUE(isSharer(Dir, PuKind::Cpu, 0x40));
  EXPECT_TRUE(isSharer(Dir, PuKind::Gpu, 0x40));
}

TEST(Directory, ReadOfRemoteDirtyFetches) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, true); // CPU holds Modified.
  CoherenceAction A = Dir.onAccess(PuKind::Gpu, 0x40, false);
  EXPECT_TRUE(A.FetchFromRemote);
  EXPECT_FALSE(A.InvalidateRemote);
  EXPECT_GT(A.Messages, 0u);
  EXPECT_EQ(Dir.state(0x40), DirState::SharedBoth);
}

TEST(Directory, WriteInvalidatesSharer) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, false);
  Dir.onAccess(PuKind::Gpu, 0x40, false); // SharedBoth.
  CoherenceAction A = Dir.onAccess(PuKind::Cpu, 0x40, true);
  EXPECT_TRUE(A.InvalidateRemote);
  EXPECT_EQ(Dir.state(0x40), DirState::ExclusiveCpu);
  EXPECT_FALSE(isSharer(Dir, PuKind::Gpu, 0x40));
}

TEST(Directory, WriteToRemoteDirtyFetchesAndInvalidates) {
  Directory Dir;
  Dir.onAccess(PuKind::Gpu, 0x40, true); // GPU Modified.
  CoherenceAction A = Dir.onAccess(PuKind::Cpu, 0x40, true);
  EXPECT_TRUE(A.FetchFromRemote);
  EXPECT_TRUE(A.InvalidateRemote);
  EXPECT_EQ(Dir.state(0x40), DirState::ExclusiveCpu);
}

TEST(Directory, LocalUpgradeIsSilent) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, false);
  CoherenceAction A = Dir.onAccess(PuKind::Cpu, 0x40, true);
  EXPECT_FALSE(A.InvalidateRemote);
  EXPECT_FALSE(A.FetchFromRemote);
  EXPECT_EQ(A.Messages, 0u);
}

TEST(Directory, EvictionRemovesSharer) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, false);
  Dir.onAccess(PuKind::Gpu, 0x40, false);
  Dir.onEviction(PuKind::Cpu, 0x40);
  EXPECT_EQ(Dir.state(0x40), DirState::ExclusiveGpu);
  Dir.onEviction(PuKind::Gpu, 0x40);
  EXPECT_EQ(Dir.state(0x40), DirState::Uncached);
  EXPECT_EQ(Dir.trackedLines(), 0u);
}

TEST(Directory, StaleEvictionIgnored) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, false);
  Dir.onEviction(PuKind::Gpu, 0x40); // GPU never had it.
  EXPECT_EQ(Dir.state(0x40), DirState::ExclusiveCpu);
}

TEST(Directory, StatsAccumulate) {
  Directory Dir;
  Dir.onAccess(PuKind::Cpu, 0x40, true);
  Dir.onAccess(PuKind::Gpu, 0x40, true);
  EXPECT_EQ(Dir.stats().Lookups, 2u);
  EXPECT_EQ(Dir.stats().RemoteInvalidations, 1u);
  EXPECT_EQ(Dir.stats().RemoteFetches, 1u);
  EXPECT_GT(Dir.stats().Messages, 0u);
}
