//===- cache/Cache.cpp ----------------------------------------------------===//

#include "cache/Cache.h"

#include "common/Error.h"

#include <cassert>

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

CacheConfig CacheConfig::gpuL1I() {
  CacheConfig C;
  C.Name = "gpu.l1i";
  C.SizeBytes = 4 * 1024;
  C.Ways = 4;
  C.HitLatency = 1;
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

Cache::Cache(const CacheConfig &Cfg, uint64_t RngSeed)
    : Config(Cfg), Rng(RngSeed) {
  if (!Config.isValid())
    fatalError(("invalid cache geometry for " + Config.Name).c_str());
  if (Config.MaxExplicitWays == 0)
    Config.MaxExplicitWays = Config.Ways > 1 ? Config.Ways - 1 : 1;
  NumSets = Config.numSets();
  LineShift = log2Exact(Config.LineBytes);
  TagShift = LineShift + log2Exact(NumSets);
  Lines.resize(uint64_t(NumSets) * Config.Ways);
  Tags.resize(Lines.size());
}

int Cache::chooseVictim(unsigned SetBase, bool FillIsExplicit) {
  if (Config.Replacement == ReplacementKind::Lru) {
    // The first invalid way, else the first least recently used: one pass.
    const Line *Set = &Lines[SetBase];
    unsigned Victim = 0;
    for (unsigned W = 0; W != Config.Ways; ++W) {
      if (!Set[W].Valid)
        return int(W);
      if (Set[W].LruStamp < Set[Victim].LruStamp)
        Victim = W;
    }
    return int(Victim);
  }

  // Invalid ways first.
  for (unsigned W = 0; W != Config.Ways; ++W)
    if (!Lines[SetBase + W].Valid)
      return int(W);

  if (Config.Replacement == ReplacementKind::Random) {
    return int(Rng.nextBelow(Config.Ways));
  }

  const bool Hybrid = Config.Replacement == ReplacementKind::HybridLru;

  if (Hybrid && FillIsExplicit) {
    // Enforce the explicit-capacity cap: if the set already holds the
    // maximum number of explicit ways, evict the LRU explicit line;
    // otherwise fall through to plain LRU over all ways.
    unsigned ExplicitCount = 0;
    int LruExplicit = -1;
    for (unsigned W = 0; W != Config.Ways; ++W) {
      const Line &L = Lines[SetBase + W];
      if (!L.Explicit)
        continue;
      ++ExplicitCount;
      if (LruExplicit < 0 ||
          L.LruStamp < Lines[SetBase + unsigned(LruExplicit)].LruStamp)
        LruExplicit = int(W);
    }
    if (ExplicitCount >= Config.MaxExplicitWays)
      return LruExplicit;
  }

  int Victim = -1;
  for (unsigned W = 0; W != Config.Ways; ++W) {
    const Line &L = Lines[SetBase + W];
    // Hybrid rule (Section II-B5): an implicitly-managed fill may not
    // evict an explicitly-managed block.
    if (Hybrid && !FillIsExplicit && L.Explicit)
      continue;
    if (Victim < 0 ||
        L.LruStamp < Lines[SetBase + unsigned(Victim)].LruStamp)
      Victim = int(W);
  }
  return Victim; // -1 when every candidate way is explicit (bypass).
}

CacheAccessResult Cache::fill(Addr Address, bool IsWrite, bool MarkExplicit) {
  CacheAccessResult Result;
  ++Stats.Misses;
  unsigned SetBase = setIndex(Address) * Config.Ways;
  int Way = chooseVictim(SetBase, MarkExplicit);
  if (Way < 0) {
    ++Stats.BypassedFills;
    Result.BypassedFill = true;
    return Result;
  }

  Line &Victim = Lines[SetBase + unsigned(Way)];
  Addr &VictimTag = Tags[SetBase + unsigned(Way)];
  if (Victim.Valid) {
    ++Stats.Evictions;
    if (Victim.Dirty) {
      ++Stats.Writebacks;
      Result.WroteBack = true;
      Result.VictimAddr = addressOf(VictimTag, setIndex(Address));
    }
  }

  Victim.Valid = true;
  VictimTag = tagOf(Address);
  Victim.Dirty = IsWrite;
  Victim.Explicit = MarkExplicit;
  Victim.State = IsWrite ? CohState::Modified : CohState::Exclusive;
  Victim.LruStamp = NextStamp++;
  return Result;
}

bool Cache::probe(Addr Address) const { return findLine(Address) != nullptr; }

CohState Cache::lineState(Addr Address) const {
  const Line *L = findLine(Address);
  return L ? L->State : CohState::Invalid;
}

void Cache::setLineState(Addr Address, CohState State) {
  Line *L = findLine(Address);
  assert(L && "setLineState on a non-resident line");
  L->State = State;
  if (State == CohState::Invalid) {
    L->Valid = false;
    L->Dirty = false;
    L->Explicit = false;
  }
}

bool Cache::invalidate(Addr Address) {
  Line *L = findLine(Address);
  if (!L)
    return false;
  bool WasDirty = L->Dirty;
  L->Valid = false;
  L->Dirty = false;
  L->Explicit = false;
  L->State = CohState::Invalid;
  return WasDirty;
}

bool Cache::downgradeToShared(Addr Address) {
  Line *L = findLine(Address);
  if (!L)
    return false;
  bool WasDirty = L->Dirty;
  L->Dirty = false;
  L->State = CohState::Shared;
  return WasDirty;
}

void Cache::flushAll(const std::function<void(Addr)> &WritebackFn) {
  for (unsigned Set = 0; Set != NumSets; ++Set) {
    for (unsigned W = 0; W != Config.Ways; ++W) {
      const size_t I = size_t(Set) * Config.Ways + W;
      Line &L = Lines[I];
      if (!L.Valid)
        continue;
      if (L.Dirty && WritebackFn)
        WritebackFn(addressOf(Tags[I], Set));
      L = Line();
      Tags[I] = 0;
    }
  }
}

unsigned Cache::residentLines() const {
  unsigned Count = 0;
  for (const Line &L : Lines)
    if (L.Valid)
      ++Count;
  return Count;
}

unsigned Cache::residentExplicitLines() const {
  unsigned Count = 0;
  for (const Line &L : Lines)
    if (L.Valid && L.Explicit)
      ++Count;
  return Count;
}
