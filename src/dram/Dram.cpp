//===- dram/Dram.cpp ------------------------------------------------------===//

#include "dram/Dram.h"

#include "common/Error.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

DramSystem::DramSystem(const DramConfig &Cfg) : Config(Cfg) {
  if (!Cfg.isValid())
    fatalError("invalid DRAM configuration");
  Banks.resize(uint64_t(Cfg.Channels) * Cfg.BanksPerChannel);
  ChannelBusFree.resize(Cfg.Channels, 0);
  // Address decode: line | channel | bank | row, all power-of-two fields.
  BankShift = log2Exact(CacheLineBytes) + log2Exact(Cfg.Channels);
  RowShift = BankShift + log2Exact(Cfg.BanksPerChannel) +
             log2Exact(Cfg.RowBytes / CacheLineBytes);
}

unsigned DramSystem::channelOf(Addr LineAddress) const {
  // Interleave channels at line granularity for bandwidth.
  return unsigned((LineAddress >> log2Exact(CacheLineBytes)) &
                  (Config.Channels - 1));
}

unsigned DramSystem::bankOf(Addr LineAddress) const {
  return unsigned((LineAddress >> BankShift) & (Config.BanksPerChannel - 1));
}

uint64_t DramSystem::rowOf(Addr LineAddress) const {
  return LineAddress >> RowShift;
}

DramSystem::Bank &DramSystem::bank(Addr LineAddress) {
  return Banks[channelOf(LineAddress) * Config.BanksPerChannel +
               bankOf(LineAddress)];
}

Cycle DramSystem::access(Addr LineAddress, Cycle Now, bool IsWrite) {
  return accessImpl(LineAddress, Now, IsWrite, /*CapQueue=*/true);
}

Cycle DramSystem::accessUncapped(Addr LineAddress, Cycle Now, bool IsWrite) {
  return accessImpl(LineAddress, Now, IsWrite, /*CapQueue=*/false);
}

Cycle DramSystem::accessImpl(Addr LineAddress, Cycle Now, bool IsWrite,
                             bool CapQueue) {
  Bank &B = bank(LineAddress);
  unsigned Channel = channelOf(LineAddress);
  uint64_t Row = rowOf(LineAddress);

  Cycle BankFree =
      CapQueue ? std::min(B.ReadyAt, Now + Config.MaxQueueDelay) : B.ReadyAt;
  Cycle Start = std::max(Now, BankFree);
  Cycle ArrayLatency;
  if (B.OpenRow == Row) {
    ++Stats.RowHits;
    ArrayLatency = Config.RowHitLatency;
  } else {
    ++Stats.RowMisses;
    // Open page: a conflict pays precharge + activate + CAS.
    ArrayLatency = Config.RowMissLatency;
    B.OpenRow = Row;
  }

  Cycle ArrayDone = Start + ArrayLatency;
  Cycle BusFree = CapQueue ? std::min(ChannelBusFree[Channel],
                                      ArrayDone + Config.MaxQueueDelay)
                           : ChannelBusFree[Channel];
  Cycle DataStart = std::max(ArrayDone, BusFree);
  Cycle Done = DataStart + Config.BusCyclesPerLine;
  ChannelBusFree[Channel] = Done;
  B.ReadyAt = Start + ArrayLatency;

  if (IsWrite)
    ++Stats.Writes;
  else
    ++Stats.Reads;
  Stats.BytesTransferred += CacheLineBytes;
  return Done;
}

void DramSystem::enqueue(Addr LineAddress, bool IsWrite) {
  Queue.push_back({LineAddress, IsWrite});
  Stats.PeakQueueDepth = std::max(Stats.PeakQueueDepth, uint64_t(Queue.size()));
}

Cycle DramSystem::drainFrFcfs(Cycle Now) {
  Cycle Finish = Now;
  HostLineVector<Request> Pending;
  Pending.swap(Queue);
  if (!Pending.empty()) {
    ++Stats.BatchDrains;
    Stats.BatchedRequests += Pending.size();
  }

  // Address decode (bank index, row) is loop-invariant per request, so
  // compute it once up front.
  struct Decoded {
    uint64_t Row;
    uint32_t BankIndex;
    bool Serviced;
  };
  const size_t N = Pending.size();
  std::vector<Decoded> Info(N);
  for (size_t I = 0; I != N; ++I) {
    Addr Line = Pending[I].LineAddress;
    Info[I] = {rowOf(Line),
               uint32_t(channelOf(Line) * Config.BanksPerChannel +
                        bankOf(Line)),
               false};
  }

  // First-ready: service the oldest request whose bank has its row open,
  // else (first-come-first-served) the oldest request. Rather than scan
  // the queue per pick, requests are ordered by (bank, row, age): a bank's
  // oldest row hit heads the run of its open row, found by binary search,
  // and a pick changes only its own bank's open row. So each bank keeps a
  // candidate, and a pick is the oldest candidate.
  std::vector<uint32_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = uint32_t(I);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    if (Info[A].BankIndex != Info[B].BankIndex)
      return Info[A].BankIndex < Info[B].BankIndex;
    if (Info[A].Row != Info[B].Row)
      return Info[A].Row < Info[B].Row;
    return A < B;
  });
  std::vector<size_t> BankBegin(Banks.size() + 1, N);
  for (size_t K = N; K-- != 0;)
    BankBegin[Info[Order[K]].BankIndex] = K;
  for (size_t B = Banks.size(); B-- != 0;)
    BankBegin[B] = std::min(BankBegin[B], BankBegin[B + 1]);
  // Cursor[K], for K the start of a (bank, row) run: the first position
  // of the run that may still be unserviced (one extra slot for "none").
  std::vector<size_t> Cursor(N + 1);
  for (size_t K = 0; K != N + 1; ++K)
    Cursor[K] = K;

  constexpr uint32_t NoRequest = ~uint32_t(0);
  std::vector<uint32_t> Candidate(Banks.size(), NoRequest);
  auto Refresh = [&](size_t B) {
    Candidate[B] = NoRequest;
    const uint64_t Open = Banks[B].OpenRow;
    const size_t End = BankBegin[B + 1];
    const uint32_t *Begin = Order.data();
    const uint32_t *Run = std::lower_bound(
        Begin + BankBegin[B], Begin + End, Open,
        [&](uint32_t I, uint64_t Row) { return Info[I].Row < Row; });
    size_t &K = Cursor[size_t(Run - Begin)];
    while (K != End && Info[Order[K]].Row == Open && Info[Order[K]].Serviced)
      ++K;
    if (K != End && Info[Order[K]].Row == Open)
      Candidate[B] = Order[K];
  };
  for (size_t B = 0; B != Banks.size(); ++B)
    Refresh(B);

  size_t FirstAlive = 0; // Oldest unserviced request: the FCFS fallback.
  for (size_t Remaining = N; Remaining != 0; --Remaining) {
    uint32_t Pick = *std::min_element(Candidate.begin(), Candidate.end());
    if (Pick == NoRequest) {
      while (Info[FirstAlive].Serviced)
        ++FirstAlive;
      Pick = uint32_t(FirstAlive);
    }
    Info[Pick].Serviced = true;
    Cycle Done = accessUncapped(Pending[Pick].LineAddress, Now,
                                Pending[Pick].IsWrite);
    Finish = std::max(Finish, Done);
    Refresh(Info[Pick].BankIndex);
  }
  return Finish;
}
