//===- cache/Directory.cpp ------------------------------------------------===//

#include "cache/Directory.h"

#include <algorithm>
#include <cassert>

using namespace hetsim;

CoherenceAction Directory::onAccess(PuKind Requestor, Addr LineAddress,
                                    bool IsWrite) {
  ++Stats.Lookups;
  CoherenceAction Action;
  const size_t Index = indexOf(LineAddress);
  if (Index >= Entries.size())
    Entries.resize(std::max(Index + 1, Entries.size() + Entries.size() / 2));
  Entry &E = Entries[Index];

  const DirState MyExclusive = Requestor == PuKind::Cpu
                                   ? DirState::ExclusiveCpu
                                   : DirState::ExclusiveGpu;
  [[maybe_unused]] const DirState RemoteExclusive =
      Requestor == PuKind::Cpu ? DirState::ExclusiveGpu
                               : DirState::ExclusiveCpu;

  switch (E.State) {
  case DirState::Uncached:
    E.State = MyExclusive;
    E.Dirty = IsWrite;
    ++Tracked;
    break;

  case DirState::SharedBoth:
    if (IsWrite) {
      // Upgrade: invalidate the other sharer.
      Action.InvalidateRemote = true;
      Action.Messages = 2; // invalidate + ack
      E.State = MyExclusive;
      E.Dirty = true;
    }
    break;

  default:
    if (E.State == MyExclusive) {
      if (IsWrite)
        E.Dirty = true;
      break;
    }
    assert(E.State == RemoteExclusive && "inconsistent directory state");
    if (E.Dirty) {
      Action.FetchFromRemote = true;
      ++Stats.RemoteFetches;
      Action.Messages += 2; // fetch request + data reply
    }
    if (IsWrite) {
      Action.InvalidateRemote = true;
      Action.Messages += 2; // invalidate + ack
      E.State = MyExclusive;
      E.Dirty = true;
    } else {
      E.State = DirState::SharedBoth;
      E.Dirty = false; // remote wrote back on the fetch
    }
    break;
  }

  if (Action.InvalidateRemote)
    ++Stats.RemoteInvalidations;
  Stats.Messages += Action.Messages;
  return Action;
}

void Directory::onEviction(PuKind Pu, Addr LineAddress) {
  const size_t Index = indexOf(LineAddress);
  if (Index >= Entries.size())
    return;
  Entry &E = Entries[Index];
  switch (E.State) {
  case DirState::Uncached:
    return;
  case DirState::SharedBoth:
    // The other PU becomes the sole (clean) holder.
    E.State = Pu == PuKind::Cpu ? DirState::ExclusiveGpu
                                : DirState::ExclusiveCpu;
    E.Dirty = false;
    return;
  case DirState::ExclusiveCpu:
    if (Pu != PuKind::Cpu)
      return; // Stale notification; ignore.
    break;
  case DirState::ExclusiveGpu:
    if (Pu != PuKind::Gpu)
      return;
    break;
  }
  E = Entry();
  --Tracked;
}

DirState Directory::state(Addr LineAddress) const {
  const size_t Index = indexOf(LineAddress);
  return Index < Entries.size() ? Entries[Index].State : DirState::Uncached;
}
