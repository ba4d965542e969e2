//===- cache/Cache.cpp ----------------------------------------------------===//

#include "cache/Cache.h"

#include "common/Error.h"

using namespace hetsim;

CacheConfig CacheConfig::cpuL1D() {
  CacheConfig C;
  C.Name = "cpu.l1d";
  C.SizeBytes = 32 * 1024;
  C.Ways = 8;
  C.HitLatency = 2;
  return C;
}

CacheConfig CacheConfig::cpuL1I() {
  CacheConfig C;
  C.Name = "cpu.l1i";
  C.SizeBytes = 32 * 1024;
  C.Ways = 8;
  C.HitLatency = 2;
  return C;
}

CacheConfig CacheConfig::cpuL2() {
  CacheConfig C;
  C.Name = "cpu.l2";
  C.SizeBytes = 256 * 1024;
  C.Ways = 8;
  C.HitLatency = 8;
  return C;
}

CacheConfig CacheConfig::gpuL1D() {
  CacheConfig C;
  C.Name = "gpu.l1d";
  C.SizeBytes = 32 * 1024;
  C.Ways = 8;
  C.HitLatency = 2;
  return C;
}

CacheConfig CacheConfig::sharedL3() {
  CacheConfig C;
  C.Name = "l3";
  C.SizeBytes = 8 * 1024 * 1024;
  C.Ways = 32;
  C.HitLatency = 20;
  return C;
}

Cache::Cache(const CacheConfig &Cfg) : Config(Cfg) {
  if (!Config.isValid())
    fatalError(("invalid cache geometry for " + Config.Name).c_str());
  if (Config.MaxExplicitWays == 0)
    Config.MaxExplicitWays = Config.Ways > 1 ? Config.Ways - 1 : 1;
  NumSets = Config.numSets();
  LineShift = log2Exact(Config.LineBytes);
  TagShift = LineShift + log2Exact(NumSets);
  RowWays = Config.Ways + (Config.Ways & 1);
  const size_t NumLines = size_t(NumSets) * RowWays;
  Tags.assign(NumLines, InvalidTag);
  Stamps.assign(NumLines, 0);
  Flags.assign(NumLines, LineFlags());
}

int Cache::chooseVictim(size_t SetBase, bool FillIsExplicit) {
  const uint64_t *Stamp = &Stamps[SetBase];
  if (Config.Replacement == ReplacementKind::Lru) {
    // The first minimum stamp: the first invalid way (stamp 0) if there is
    // one, else the least recently used (valid stamps are unique). The
    // running minimum stays in a register, and the selects are branch-free:
    // which way holds the minimum is data, not a predictable branch.
    unsigned Victim = 0;
    uint64_t Min = Stamp[0];
    for (unsigned W = 1; W != Config.Ways; ++W) {
      const uint64_t S = Stamp[W];
      const bool Older = S < Min;
      Min = Older ? S : Min;
      Victim = Older ? W : Victim;
    }
    return int(Victim);
  }

  // HybridLru. Invalid ways first.
  for (unsigned W = 0; W != Config.Ways; ++W)
    if (Stamp[W] == 0)
      return int(W);

  const LineFlags *Flag = &Flags[SetBase];

  if (FillIsExplicit) {
    // Enforce the explicit-capacity cap: if the set already holds the
    // maximum number of explicit ways, evict the LRU explicit line;
    // otherwise fall through to plain LRU over all ways.
    unsigned ExplicitCount = 0;
    int LruExplicit = -1;
    for (unsigned W = 0; W != Config.Ways; ++W) {
      if (!Flag[W].Explicit)
        continue;
      ++ExplicitCount;
      if (LruExplicit < 0 || Stamp[W] < Stamp[LruExplicit])
        LruExplicit = int(W);
    }
    if (ExplicitCount >= Config.MaxExplicitWays)
      return LruExplicit;
  }

  int Victim = -1;
  for (unsigned W = 0; W != Config.Ways; ++W) {
    // Hybrid rule (Section II-B5): an implicitly-managed fill may not
    // evict an explicitly-managed block.
    if (!FillIsExplicit && Flag[W].Explicit)
      continue;
    if (Victim < 0 || Stamp[W] < Stamp[Victim])
      Victim = int(W);
  }
  return Victim; // -1 when every candidate way is explicit (bypass).
}

CacheAccessResult Cache::fill(Addr Address, bool IsWrite, bool MarkExplicit) {
  CacheAccessResult Result;
  ++Stats.Misses;
  const unsigned Set = setIndex(Address);
  const size_t SetBase = size_t(Set) * RowWays;
  int Way = chooseVictim(SetBase, MarkExplicit);
  if (Way < 0) {
    ++Stats.BypassedFills;
    Result.BypassedFill = true;
    return Result;
  }

  const size_t I = SetBase + unsigned(Way);
  if (Stamps[I] != 0) {
    ++Stats.Evictions;
    if (Flags[I].Dirty) {
      ++Stats.Writebacks;
      Result.WroteBack = true;
      Result.VictimAddr = addressOf(Tags[I], Set);
    }
  }

  Tags[I] = tagOf(Address);
  Stamps[I] = NextStamp++;
  Flags[I].Dirty = IsWrite;
  Flags[I].Explicit = MarkExplicit;
  return Result;
}

bool Cache::probe(Addr Address) const { return findLine(Address) != NoLine; }

bool Cache::invalidate(Addr Address) {
  const size_t I = findLine(Address);
  if (I == NoLine)
    return false;
  const bool WasDirty = Flags[I].Dirty;
  invalidateLine(I);
  return WasDirty;
}

bool Cache::downgradeToShared(Addr Address) {
  const size_t I = findLine(Address);
  if (I == NoLine)
    return false;
  const bool WasDirty = Flags[I].Dirty;
  Flags[I].Dirty = 0;
  return WasDirty;
}

void Cache::flushAll(const std::function<void(Addr)> &WritebackFn) {
  for (unsigned Set = 0; Set != NumSets; ++Set) {
    for (unsigned W = 0; W != Config.Ways; ++W) {
      const size_t I = size_t(Set) * RowWays + W;
      if (Stamps[I] == 0)
        continue;
      if (Flags[I].Dirty && WritebackFn)
        WritebackFn(addressOf(Tags[I], Set));
      invalidateLine(I);
    }
  }
}

unsigned Cache::residentLines() const {
  unsigned Count = 0;
  for (uint64_t Stamp : Stamps)
    if (Stamp != 0)
      ++Count;
  return Count;
}

unsigned Cache::residentExplicitLines() const {
  unsigned Count = 0;
  for (size_t I = 0; I != Stamps.size(); ++I)
    if (Stamps[I] != 0 && Flags[I].Explicit)
      ++Count;
  return Count;
}
