//===- common/FlatMap.h - Open-addressed hash map ---------------*- C++ -*-===//
///
/// \file
/// A flat open-addressed hash map from 64-bit keys to small values, for the
/// per-access hot paths (page-table walks, store-buffer probes, directory
/// lookups) where std::unordered_map's node allocation and pointer chasing
/// dominate. Linear probing over a power-of-two table keeps a lookup to one
/// multiply, one shift, and a short contiguous scan.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_FLATMAP_H
#define HETSIM_COMMON_FLATMAP_H

#include "common/HostLine.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace hetsim {

/// Open-addressed map: uint64_t key -> \p V. Two key values are reserved
/// as slot markers (~0 and ~0-1); callers never use them (virtual page
/// numbers, line addresses, and store addresses are far below 2^64-2).
/// Erase uses tombstones; a rehash (on growth) drops them.
template <typename V> class FlatU64Map {
public:
  FlatU64Map() { rehash(InitialSlots); }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  void clear() {
    Slots.clear();
    Count = 0;
    Tombstones = 0;
    rehash(InitialSlots);
  }

  /// Returns the value mapped to \p Key, or nullptr.
  const V *find(uint64_t Key) const {
    assert(Key < TombstoneKey && "reserved key");
    size_t I = indexOf(Key);
    while (true) {
      const Slot &S = Slots[I];
      if (S.Key == Key)
        return &S.Value;
      if (S.Key == EmptyKey)
        return nullptr;
      I = (I + 1) & Mask;
    }
  }

  V *find(uint64_t Key) {
    return const_cast<V *>(static_cast<const FlatU64Map *>(this)->find(Key));
  }

  bool contains(uint64_t Key) const { return find(Key) != nullptr; }

  /// Returns the value for \p Key, default-constructing it if absent.
  V &operator[](uint64_t Key) {
    assert(Key < TombstoneKey && "reserved key");
    maybeGrow();
    size_t I = indexOf(Key);
    size_t FirstFree = SIZE_MAX;
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key)
        return S.Value;
      if (S.Key == TombstoneKey) {
        if (FirstFree == SIZE_MAX)
          FirstFree = I;
      } else if (S.Key == EmptyKey) {
        size_t Target = FirstFree != SIZE_MAX ? FirstFree : I;
        if (Slots[Target].Key == TombstoneKey)
          --Tombstones;
        Slots[Target].Key = Key;
        Slots[Target].Value = V();
        ++Count;
        return Slots[Target].Value;
      }
      I = (I + 1) & Mask;
    }
  }

  /// Removes \p Key if present; returns true when an entry was erased.
  bool erase(uint64_t Key) {
    assert(Key < TombstoneKey && "reserved key");
    size_t I = indexOf(Key);
    while (true) {
      Slot &S = Slots[I];
      if (S.Key == Key) {
        S.Key = TombstoneKey;
        S.Value = V();
        --Count;
        ++Tombstones;
        return true;
      }
      if (S.Key == EmptyKey)
        return false;
      I = (I + 1) & Mask;
    }
  }

  /// Calls \p Fn(key, value&) for every live entry (unspecified order).
  template <typename Fn> void forEach(Fn &&Callback) {
    for (Slot &S : Slots)
      if (S.Key < TombstoneKey)
        Callback(S.Key, S.Value);
  }

private:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);
  static constexpr uint64_t TombstoneKey = ~uint64_t(0) - 1;
  static constexpr size_t InitialSlots = 64;

  struct Slot {
    uint64_t Key = EmptyKey;
    V Value{};
  };

  static uint64_t mix(uint64_t X) {
    // Fibonacci multiplicative hash with a finishing xor-shift: cheap and
    // strong enough to scatter page-aligned keys.
    X *= 0x9E3779B97F4A7C15ull;
    return X ^ (X >> 29);
  }

  size_t indexOf(uint64_t Key) const { return size_t(mix(Key)) & Mask; }

  void maybeGrow() {
    // Grow at 3/4 occupancy (live + tombstones) to bound probe lengths.
    if ((Count + Tombstones) * 4 >= Slots.size() * 3)
      rehash(Slots.size() * 2);
  }

  void rehash(size_t NewSlots) {
    HostLineVector<Slot> Old = std::move(Slots);
    Slots.assign(NewSlots, Slot{});
    Mask = NewSlots - 1;
    Tombstones = 0;
    for (Slot &S : Old) {
      if (S.Key >= TombstoneKey)
        continue;
      size_t I = indexOf(S.Key);
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & Mask;
      Slots[I].Key = S.Key;
      Slots[I].Value = std::move(S.Value);
    }
  }

  HostLineVector<Slot> Slots;
  size_t Count = 0;
  size_t Tombstones = 0;
  size_t Mask = 0;
};

} // namespace hetsim

#endif // HETSIM_COMMON_FLATMAP_H
