//===- tests/dram_test.cpp - dram/ unit tests -----------------------------===//

#include "common/Random.h"
#include "dram/Dram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace hetsim;

namespace {
/// Line address with a given channel, bank, and row for the default
/// geometry (4 channels, 8 banks, 8KB rows): channel bits [6,8), bank
/// [8,11), then 128 lines per row per bank.
Addr makeAddr(unsigned Channel, unsigned Bank, uint64_t Row,
              uint64_t LineInRow = 0) {
  return (((Row * 128 + LineInRow) << 5 | Bank << 2 | Channel) << 6);
}
} // namespace

TEST(DramConfig, DefaultsValid) {
  EXPECT_TRUE(DramConfig().isValid());
}

TEST(DramConfig, RejectsNonPow2) {
  DramConfig Config;
  Config.Channels = 3;
  EXPECT_FALSE(Config.isValid());
}

TEST(DramConfig, RejectsRowsSmallerThanALine) {
  DramConfig Config;
  Config.RowBytes = CacheLineBytes / 2;
  EXPECT_FALSE(Config.isValid());
}

TEST(Dram, AddressMapping) {
  DramSystem Dram;
  Addr A = makeAddr(2, 5, 7, 3);
  EXPECT_EQ(Dram.channelOf(A), 2u);
  EXPECT_EQ(Dram.bankOf(A), 5u);
  EXPECT_EQ(Dram.rowOf(A), 7u);

  // Another geometry: 2 channels, 16 banks, 2KB rows (32 lines per row):
  // channel bit 6, bank bits [7,11), then the line within the row.
  DramConfig Config;
  Config.Channels = 2;
  Config.BanksPerChannel = 16;
  Config.RowBytes = 2048;
  DramSystem Other(Config);
  Addr B = (((uint64_t(9) * 32 + 31) << 5 | 11 << 1 | 1) << 6);
  EXPECT_EQ(Other.channelOf(B), 1u);
  EXPECT_EQ(Other.bankOf(B), 11u);
  EXPECT_EQ(Other.rowOf(B), 9u);
}

TEST(Dram, ConsecutiveLinesInterleaveChannels) {
  DramSystem Dram;
  EXPECT_EQ(Dram.channelOf(0), 0u);
  EXPECT_EQ(Dram.channelOf(64), 1u);
  EXPECT_EQ(Dram.channelOf(128), 2u);
  EXPECT_EQ(Dram.channelOf(192), 3u);
  EXPECT_EQ(Dram.channelOf(256), 0u);
}

TEST(Dram, FirstAccessIsRowMiss) {
  DramSystem Dram;
  Cycle Done = Dram.access(makeAddr(0, 0, 1), 0, false);
  EXPECT_EQ(Done, DramConfig().RowMissLatency + DramConfig().BusCyclesPerLine);
  EXPECT_EQ(Dram.stats().RowMisses, 1u);
  EXPECT_EQ(Dram.stats().RowHits, 0u);
}

TEST(Dram, SecondAccessSameRowHits) {
  DramSystem Dram;
  Cycle First = Dram.access(makeAddr(0, 0, 1, 0), 0, false);
  Cycle Second = Dram.access(makeAddr(0, 0, 1, 1), First, false);
  EXPECT_EQ(Dram.stats().RowHits, 1u);
  EXPECT_EQ(Second - First,
            DramConfig().RowHitLatency + DramConfig().BusCyclesPerLine);
}

TEST(Dram, RowConflictReopens) {
  DramSystem Dram;
  Cycle First = Dram.access(makeAddr(0, 0, 1), 0, false);
  Dram.access(makeAddr(0, 0, 2), First, false); // Different row, same bank.
  EXPECT_EQ(Dram.stats().RowMisses, 2u);
}

TEST(Dram, ChannelBusSerializes) {
  DramSystem Dram;
  // Two simultaneous accesses to different banks of the same channel: the
  // second's data must wait for the shared channel bus.
  Cycle A = Dram.access(makeAddr(1, 0, 0), 0, false);
  Cycle B = Dram.access(makeAddr(1, 1, 0), 0, false);
  EXPECT_GE(B, A + DramConfig().BusCyclesPerLine);
}

TEST(Dram, DifferentChannelsAreParallel) {
  DramSystem Dram;
  Cycle A = Dram.access(makeAddr(0, 0, 0), 0, false);
  Cycle B = Dram.access(makeAddr(1, 0, 0), 0, false);
  EXPECT_EQ(A, B); // Identical uncontended paths.
}

TEST(Dram, QueueDelayIsCapped) {
  DramConfig Config;
  Config.MaxQueueDelay = 100;
  DramSystem Dram(Config);
  // A request far in the future ratchets the busy state.
  Dram.access(makeAddr(0, 0, 0), 1000000, false);
  // An "early" request (skewed timeline) must not wait a million cycles.
  Cycle Done = Dram.access(makeAddr(0, 0, 0, 1), 0, false);
  EXPECT_LE(Done, 0 + Config.MaxQueueDelay * 2 + Config.RowMissLatency +
                      Config.BusCyclesPerLine);
}

TEST(Dram, StatsCountBytes) {
  DramSystem Dram;
  Dram.access(0, 0, false);
  Dram.access(64, 0, true);
  EXPECT_EQ(Dram.stats().Reads, 1u);
  EXPECT_EQ(Dram.stats().Writes, 1u);
  EXPECT_EQ(Dram.stats().BytesTransferred, 128u);
}

//===----------------------------------------------------------------------===//
// FR-FCFS batch scheduling.
//===----------------------------------------------------------------------===//

TEST(DramFrFcfs, DrainServicesEverything) {
  DramSystem Dram;
  for (unsigned I = 0; I != 16; ++I)
    Dram.enqueue(64 * I, false);
  EXPECT_EQ(Dram.queuedRequests(), 16u);
  Cycle Finish = Dram.drainFrFcfs(0);
  EXPECT_EQ(Dram.queuedRequests(), 0u);
  EXPECT_GT(Finish, 0u);
  EXPECT_EQ(Dram.stats().Reads, 16u);
}

TEST(DramFrFcfs, RowHitsServedBeforeOlderMisses) {
  DramSystem Dram;
  // Open row 5 in (ch0, bank0).
  Dram.access(makeAddr(0, 0, 5), 0, false);
  Dram.resetStats();
  // Queue: first a conflicting row, then a row-5 hit. FR-FCFS serves the
  // row hit first, so row 5 stays open for it and only ONE miss occurs
  // (the conflicting row afterwards). FCFS order would close row 5 first
  // and pay two misses.
  Dram.enqueue(makeAddr(0, 0, 9), false);
  Dram.enqueue(makeAddr(0, 0, 5, 1), false);
  Dram.drainFrFcfs(0);
  EXPECT_EQ(Dram.stats().RowHits, 1u);
  EXPECT_EQ(Dram.stats().RowMisses, 1u);
}

TEST(DramFrFcfs, MatchesReferenceQueueScan) {
  // drainFrFcfs finds each pick through per-bank candidates. Replay the
  // plain rule on a twin — scan the queue for the oldest request whose
  // bank has its row open, else take the oldest — and compare completion
  // and row-buffer outcomes, batch after batch.
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    DramSystem Fast, Ref;
    std::vector<uint64_t> OpenRow(32, ~0ull);
    XorShiftRng Rng(Seed);
    Cycle Now = 0;
    for (unsigned Batch = 0; Batch != 20; ++Batch) {
      std::vector<std::pair<Addr, bool>> Queue;
      for (uint64_t I = 0, Size = Rng.nextBelow(300); I != Size; ++I) {
        // Few rows per bank, so row hits and conflicts both occur.
        Addr A = makeAddr(unsigned(Rng.nextBelow(4)),
                          unsigned(Rng.nextBelow(8)), Rng.nextBelow(4),
                          Rng.nextBelow(128));
        bool IsWrite = Rng.nextBelow(2) == 1;
        Fast.enqueue(A, IsWrite);
        Queue.emplace_back(A, IsWrite);
      }
      const Cycle FastDone = Fast.drainFrFcfs(Now);

      Cycle RefDone = Now;
      std::vector<bool> Served(Queue.size(), false);
      auto BankOf = [&](Addr A) {
        return Ref.channelOf(A) * 8 + Ref.bankOf(A);
      };
      for (size_t Left = Queue.size(); Left != 0; --Left) {
        size_t Pick = Queue.size();
        for (size_t I = 0; I != Queue.size() && Pick == Queue.size(); ++I)
          if (!Served[I] &&
              OpenRow[BankOf(Queue[I].first)] == Ref.rowOf(Queue[I].first))
            Pick = I;
        for (size_t I = 0; I != Queue.size() && Pick == Queue.size(); ++I)
          if (!Served[I])
            Pick = I;
        Served[Pick] = true;
        auto [A, IsWrite] = Queue[Pick];
        RefDone = std::max(RefDone, Ref.accessUncapped(A, Now, IsWrite));
        OpenRow[BankOf(A)] = Ref.rowOf(A);
      }
      ASSERT_EQ(FastDone, RefDone) << "seed " << Seed << " batch " << Batch;
      ASSERT_EQ(Fast.stats().RowHits, Ref.stats().RowHits);
      ASSERT_EQ(Fast.stats().RowMisses, Ref.stats().RowMisses);
      Now = FastDone + Rng.nextBelow(500);
    }
  }
}

TEST(DramFrFcfs, StreamingBatchMostlyRowHits) {
  DramSystem Dram;
  // 256 sequential lines = 16KB: within each bank the lines fall in one
  // row, so after the first activation per bank everything hits.
  for (unsigned I = 0; I != 256; ++I)
    Dram.enqueue(64 * I, false);
  Dram.drainFrFcfs(0);
  EXPECT_GT(Dram.stats().rowHitRate(), 0.85);
}

TEST(DramFrFcfs, BatchStatsTrackDrainsAndQueueDepth) {
  DramSystem Dram;
  for (unsigned I = 0; I != 16; ++I)
    Dram.enqueue(64 * I, false);
  EXPECT_EQ(Dram.stats().PeakQueueDepth, 16u);
  Dram.drainFrFcfs(0);
  EXPECT_EQ(Dram.stats().BatchDrains, 1u);
  EXPECT_EQ(Dram.stats().BatchedRequests, 16u);
  // Draining an empty queue does no work and counts no drain.
  Dram.drainFrFcfs(1000);
  EXPECT_EQ(Dram.stats().BatchDrains, 1u);
  // The high-water mark persists across drains and only grows.
  Dram.enqueue(0, false);
  EXPECT_EQ(Dram.stats().PeakQueueDepth, 16u);
  Dram.drainFrFcfs(2000);
  EXPECT_EQ(Dram.stats().BatchDrains, 2u);
  EXPECT_EQ(Dram.stats().BatchedRequests, 17u);
}

TEST(DramFrFcfs, ParallelChannelsBeatSingleChannel) {
  // The same 64 lines spread over 4 channels finish faster than crammed
  // into one channel.
  DramSystem Spread;
  for (unsigned I = 0; I != 64; ++I)
    Spread.enqueue(64 * I, false); // Interleaves channels 0..3.
  Cycle SpreadFinish = Spread.drainFrFcfs(0);

  DramSystem Single;
  for (unsigned I = 0; I != 64; ++I)
    Single.enqueue(makeAddr(0, 0, 0, I % 128), false); // All channel 0.
  Cycle SingleFinish = Single.drainFrFcfs(0);

  EXPECT_LT(SpreadFinish, SingleFinish);
}

TEST(DramFrFcfs, EmptyDrainIsFree) {
  DramSystem Dram;
  EXPECT_EQ(Dram.drainFrFcfs(123), 123u);
}
