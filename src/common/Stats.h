//===- common/Stats.h - Named statistics registry ---------------*- C++ -*-===//
///
/// \file
/// Named counters and histograms. Every hardware model exposes its
/// activity (hits, misses, stalls, transfers) through a StatRegistry so
/// experiments can report and tests can assert on exact behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_STATS_H
#define HETSIM_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetsim {

/// A power-of-two-bucketed histogram of unsigned samples (latencies,
/// queue depths). Bucket B counts samples whose value has B significant
/// bits (bucket 0 holds zeros), so 33 buckets cover the full 32-bit
/// latency range with O(1) insertion and no allocation. Obtained once
/// through StatRegistry::histogramRef() and sampled through the returned
/// reference, it adds no per-sample string hashing on hot paths.
class StatHistogram {
public:
  static constexpr unsigned NumBuckets = 33;

  void addSample(uint64_t Value);

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count == 0 ? 0 : Min; }
  uint64_t max() const { return Max; }
  double mean() const { return Count == 0 ? 0.0 : double(Sum) / double(Count); }
  uint64_t bucket(unsigned Index) const {
    return Index < NumBuckets ? Buckets[Index] : 0;
  }
  /// Smallest value v such that at least Fraction of samples are <= the
  /// upper edge of v's bucket (a coarse, bucket-resolution percentile).
  uint64_t approxPercentile(double Fraction) const;

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0;
  uint64_t Max = 0;
};

/// A registry of named counters and histograms.
///
/// Counter names are dotted lowercase strings ("l1d.miss", "dram.reads").
/// Reading a counter that was never incremented returns zero.
class StatRegistry {
public:
  /// Adds \p Delta to counter \p Name.
  void increment(const std::string &Name, uint64_t Delta = 1);

  /// Returns a stable reference to counter \p Name (created at zero if
  /// absent). Components register their hot counters once and bump the
  /// returned reference directly, so per-access paths never hash a
  /// string. References stay valid for the registry's lifetime —
  /// std::map nodes do not move.
  uint64_t &counterRef(const std::string &Name);

  /// Adds \p Slot, a counter kept outside the registry, to counter \p Name
  /// (created at zero if absent): every read of \p Name sums its own value
  /// and each slot bound to it. A component whose users write a counter
  /// from two threads gives each its own slot and still reports one name.
  /// counterRef() of a bound name reaches the registry's own part only.
  /// \p Slot must outlive the registry's reads.
  void bindCounter(const std::string &Name, const uint64_t &Slot);

  /// Returns a stable reference to histogram \p Name (created empty if
  /// absent). Same registration-time contract as counterRef().
  StatHistogram &histogramRef(const std::string &Name);

  /// Returns the histogram \p Name (an empty one if absent).
  const StatHistogram &histogram(const std::string &Name) const;

  /// Returns all histogram names in sorted order.
  std::vector<std::string> histogramNames() const;

  /// Returns the value of counter \p Name (0 if absent).
  uint64_t counter(const std::string &Name) const;

  /// Returns all counter names in sorted order.
  std::vector<std::string> counterNames() const;

  /// Renders "name = value" lines, one per counter, sorted by name.
  std::string renderCounters() const;

private:
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::vector<const uint64_t *>> Bound;
  std::map<std::string, StatHistogram> Histograms;
  StatHistogram EmptyHistogram;
};

} // namespace hetsim

#endif // HETSIM_COMMON_STATS_H
