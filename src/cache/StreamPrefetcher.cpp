//===- cache/StreamPrefetcher.cpp -----------------------------------------===//

#include "cache/StreamPrefetcher.h"

#include <cstdlib>

using namespace hetsim;

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig &Cfg)
    : Config(Cfg) {
  Streams.resize(Config.NumStreams);
}

std::vector<Addr> StreamPrefetcher::onAccess(Addr LineAddress) {
  ++Stats.Lookups;
  ++UseClock;
  Addr Line = LineAddress / CacheLineBytes;

  // Find the closest tracked stream within the match window.
  Stream *Best = nullptr;
  uint64_t BestDistance = Config.MatchWindowBytes / CacheLineBytes + 1;
  for (Stream &S : Streams) {
    if (!S.Valid)
      continue;
    uint64_t Distance = Line > S.LastLine ? Line - S.LastLine
                                          : S.LastLine - Line;
    if (Distance < BestDistance) {
      BestDistance = Distance;
      Best = &S;
    }
  }

  if (!Best) {
    // Allocate a new stream over the LRU entry.
    Stream *Victim = &Streams[0];
    for (Stream &S : Streams) {
      if (!S.Valid) {
        Victim = &S;
        break;
      }
      if (S.LastUse < Victim->LastUse)
        Victim = &S;
    }
    *Victim = Stream();
    Victim->Valid = true;
    Victim->LastLine = Line;
    Victim->LastUse = UseClock;
    ++Stats.StreamAllocations;
    return {};
  }

  int64_t Stride = int64_t(Line) - int64_t(Best->LastLine);
  Best->LastUse = UseClock;
  if (Stride == 0)
    return {}; // Same line again; nothing to learn.

  if (Stride == Best->StrideLines) {
    if (Best->Confidence < 1000)
      ++Best->Confidence;
  } else {
    Best->StrideLines = Stride;
    Best->Confidence = 1;
  }
  Best->LastLine = Line;

  if (Best->Confidence < Config.MinConfidence)
    return {};

  std::vector<Addr> Prefetches;
  Prefetches.reserve(Config.Degree);
  for (unsigned I = 1; I <= Config.Degree; ++I) {
    int64_t Target = int64_t(Line) + Best->StrideLines * int64_t(I);
    if (Target <= 0)
      continue;
    Prefetches.push_back(Addr(Target) * CacheLineBytes);
  }
  Stats.PrefetchesIssued += Prefetches.size();
  return Prefetches;
}
