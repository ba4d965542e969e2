//===- dram/Dram.h - DDR3 timing model with FR-FCFS -------------*- C++ -*-===//
///
/// \file
/// DDR3-1333 main-memory model (Table II: 4 controllers, 41.6GB/s,
/// FR-FCFS). Banks keep an open row; row hits pay CAS only, row conflicts
/// pay precharge + activate + CAS. Single demand accesses use the
/// latency-walk path; bulk transfers (e.g. Fusion's memory-controller
/// communication) enqueue many requests and drain them under a genuine
/// first-ready, first-come-first-served schedule.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_DRAM_DRAM_H
#define HETSIM_DRAM_DRAM_H

#include "common/HostLine.h"
#include "common/Types.h"

namespace hetsim {

/// Geometry and timing of the DRAM system. Latencies are in uncore (CPU,
/// 3.5GHz) cycles; defaults correspond to DDR3-1333 9-9-9 (13.5ns per
/// stage) and a 10.4GB/s per-channel data bus.
struct DramConfig {
  unsigned Channels = 4;
  unsigned BanksPerChannel = 8;
  uint64_t RowBytes = 8192;
  Cycle RowHitLatency = 47;   ///< CAS only (~13.5ns).
  Cycle RowMissLatency = 142; ///< tRP + tRCD + CAS (~40.5ns).
  Cycle BusCyclesPerLine = 22; ///< 64B burst on one channel (~6.2ns).
  /// Maximum queueing delay one request can inherit from bank/bus
  /// busy-until state. Requests arrive from loosely synchronized
  /// timelines (e.g. independent GPU warps); the cap keeps bounded clock
  /// skew from turning into unbounded artificial queueing while still
  /// modeling contention up to a realistic controller queue depth.
  Cycle MaxQueueDelay = 200;

  bool isValid() const {
    return Channels > 0 && isPowerOf2(Channels) && BanksPerChannel > 0 &&
           isPowerOf2(BanksPerChannel) && isPowerOf2(RowBytes) &&
           RowBytes >= CacheLineBytes;
  }
};

/// Statistics of DRAM activity.
struct DramStats {
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t RowHits = 0;
  uint64_t RowMisses = 0;
  uint64_t BytesTransferred = 0;
  uint64_t BatchDrains = 0;      ///< drainFrFcfs() calls that did work.
  uint64_t BatchedRequests = 0;  ///< Requests serviced by batch drains.
  uint64_t PeakQueueDepth = 0;   ///< High-water mark of the batch queue.

  double rowHitRate() const {
    uint64_t Total = RowHits + RowMisses;
    return Total == 0 ? 0.0 : double(RowHits) / double(Total);
  }
};

/// The DRAM system: channels x banks with open-row state.
class alignas(HostLineBytes) DramSystem {
public:
  explicit DramSystem(const DramConfig &Config = DramConfig());

  const DramConfig &config() const { return Config; }
  const DramStats &stats() const { return Stats; }

  /// Services one 64B line access arriving at \p Now. Returns the cycle at
  /// which data is available.
  Cycle access(Addr LineAddress, Cycle Now, bool IsWrite);

  /// Enqueues a line access for batch scheduling.
  void enqueue(Addr LineAddress, bool IsWrite);

  /// Number of requests waiting in the batch queue.
  size_t queuedRequests() const { return Queue.size(); }

  /// Drains the batch queue under FR-FCFS starting at \p Now: the scheduler
  /// repeatedly services the oldest row-hit request, falling back to the
  /// oldest request when no queued request hits an open row. Returns the
  /// cycle at which the last request completes.
  Cycle drainFrFcfs(Cycle Now);

  /// Like access(), but without the MaxQueueDelay cap: batch drains
  /// present genuinely long queues with consistent timestamps, so their
  /// queueing is real and must be charged in full.
  Cycle accessUncapped(Addr LineAddress, Cycle Now, bool IsWrite);

  /// Channel index a line maps to (exposed for tests).
  unsigned channelOf(Addr LineAddress) const;
  /// Bank index (within its channel) a line maps to.
  unsigned bankOf(Addr LineAddress) const;
  /// Row number a line maps to.
  uint64_t rowOf(Addr LineAddress) const;

  void resetStats() { Stats = DramStats(); }

private:
  struct Bank {
    uint64_t OpenRow = ~0ull;
    Cycle ReadyAt = 0;
  };

  Bank &bank(Addr LineAddress);
  Cycle accessImpl(Addr LineAddress, Cycle Now, bool IsWrite, bool CapQueue);

  struct Request {
    Addr LineAddress;
    bool IsWrite;
  };

  DramConfig Config;
  unsigned BankShift = 0; ///< Line address bit where the bank index starts.
  unsigned RowShift = 0;  ///< Line address bit where the row number starts.
  DramStats Stats;
  HostLineVector<Bank> Banks;           // Channels x BanksPerChannel.
  HostLineVector<Cycle> ChannelBusFree; // Next free cycle per channel bus.
  HostLineVector<Request> Queue;
};

} // namespace hetsim

#endif // HETSIM_DRAM_DRAM_H
