//===- common/HostLine.h - Host cache-line placement ------------*- C++ -*-===//
///
/// \file
/// Placement on the *host's* cache lines (not the simulated ones). A
/// parallel round on a discrete-GPU system runs its CPU and GPU halves on
/// two threads (DESIGN.md §11); every component one half writes per
/// access starts on a line of its own and fills whole lines, and so do its
/// heap arrays, so the two threads never write the same line.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_HOSTLINE_H
#define HETSIM_COMMON_HOSTLINE_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace hetsim {

/// Bytes in one host cache line (x86-64 and common AArch64 cores).
inline constexpr size_t HostLineBytes = 64;

/// An allocator whose blocks start on a host cache line and are rounded up
/// to whole lines, so no other allocation shares a line with them.
///
/// It over-allocates through plain operator new and aligns inside the
/// block, keeping the raw pointer just below the aligned start. Aligned
/// operator new (glibc's memalign) doubled a parallel sweep's peak RSS:
/// its freed blocks defeat glibc's dynamic mmap threshold, so worker
/// arenas kept every machine's cache arrays resident.
template <typename T> struct HostLineAllocator {
  using value_type = T;

  HostLineAllocator() = default;
  template <typename U>
  HostLineAllocator(const HostLineAllocator<U> &) noexcept {}

  T *allocate(size_t Count) {
    const size_t Bytes =
        (Count * sizeof(T) + HostLineBytes - 1) / HostLineBytes * HostLineBytes;
    // The start is at most one line past Raw, with room below it for Raw.
    char *Raw = static_cast<char *>(::operator new(Bytes + HostLineBytes));
    const uintptr_t Start = (reinterpret_cast<uintptr_t>(Raw) +
                             sizeof(char *) + HostLineBytes - 1) &
                            ~uintptr_t(HostLineBytes - 1);
    reinterpret_cast<char **>(Start)[-1] = Raw;
    return reinterpret_cast<T *>(Start);
  }
  void deallocate(T *Block, size_t) noexcept {
    ::operator delete(reinterpret_cast<char **>(Block)[-1]);
  }

  template <typename U>
  bool operator==(const HostLineAllocator<U> &) const noexcept {
    return true;
  }
};

/// A vector whose storage occupies host cache lines of its own.
template <typename T>
using HostLineVector = std::vector<T, HostLineAllocator<T>>;

} // namespace hetsim

#endif // HETSIM_COMMON_HOSTLINE_H
