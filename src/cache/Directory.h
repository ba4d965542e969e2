//===- cache/Directory.h - MESI directory coherence controller --*- C++ -*-===//
///
/// \file
/// A directory-based MESI controller for lines shared between the CPU and
/// GPU private hierarchies. The paper's unified/partially-shared options
/// can maintain coherent data by hardware (Section II-A); this directory
/// is that hardware. It tracks sharers per line and tells the memory
/// system which remote invalidations/fetches an access requires.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CACHE_DIRECTORY_H
#define HETSIM_CACHE_DIRECTORY_H

#include "common/Types.h"

#include <vector>

namespace hetsim {

/// What the requesting PU's access requires of the rest of the system.
struct CoherenceAction {
  /// The other PU holds the line and must invalidate it (write request).
  bool InvalidateRemote = false;
  /// The other PU holds the line dirty; data comes from its cache, which
  /// also downgrades (read) or invalidates (write).
  bool FetchFromRemote = false;
  /// Protocol messages exchanged (each one crosses the ring).
  unsigned Messages = 0;
};

/// Directory states for a tracked line.
enum class DirState : uint8_t {
  Uncached = 0,  ///< No PU caches the line.
  SharedBoth,    ///< Both PUs cache it clean.
  ExclusiveCpu,  ///< CPU holds it (possibly dirty).
  ExclusiveGpu,  ///< GPU holds it (possibly dirty).
};

/// Statistics of directory activity.
struct DirectoryStats {
  uint64_t Lookups = 0;
  uint64_t RemoteInvalidations = 0;
  uint64_t RemoteFetches = 0;
  uint64_t Messages = 0;
};

/// MESI directory covering the coherent portion of the address space.
/// Physical memory is bump-allocated from 0, so lines are dense: the
/// directory keeps one two-byte entry per physical line in a vector
/// indexed by line number, grown on demand, and a line no access reached
/// reads as Uncached.
class Directory {
public:
  /// Handles a demand access from \p Requestor to \p LineAddress. \p Dirty
  /// means the requestor will hold the line modified (a write).
  CoherenceAction onAccess(PuKind Requestor, Addr LineAddress, bool IsWrite);

  /// Notes that \p Pu evicted \p LineAddress from its private hierarchy.
  void onEviction(PuKind Pu, Addr LineAddress);

  /// Returns the directory state of \p LineAddress.
  DirState state(Addr LineAddress) const;

  const DirectoryStats &stats() const { return Stats; }

  /// Number of tracked (non-Uncached) lines.
  size_t trackedLines() const { return Tracked; }

private:
  struct Entry {
    DirState State = DirState::Uncached;
    bool Dirty = false;
  };

  static size_t indexOf(Addr LineAddress) {
    return size_t(LineAddress >> log2Exact(CacheLineBytes));
  }

  std::vector<Entry> Entries; // Line number -> state.
  size_t Tracked = 0;
  DirectoryStats Stats;
};

} // namespace hetsim

#endif // HETSIM_CACHE_DIRECTORY_H
