//===- trace/DataLayout.h - Placed kernel data objects ----------*- C++ -*-===//
///
/// \file
/// A KernelDataLayout assigns virtual base addresses to a kernel's data
/// objects. The address-space models (src/memory) decide placement (private
/// vs. shared region); trace generators then produce loads and stores whose
/// addresses fall inside the placed objects.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_DATALAYOUT_H
#define HETSIM_TRACE_DATALAYOUT_H

#include "trace/Kernel.h"

#include <string>
#include <vector>

namespace hetsim {

/// The alignment of every object a linear layout places. An object owns
/// its whole slot: a SIMD gather may reach past its last byte.
inline constexpr uint64_t SegmentAlignBytes = 4096;

/// One placed data object.
struct DataSegment {
  std::string Name;
  Addr Base = 0;
  uint64_t Bytes = 0;
  TransferDir Dir = TransferDir::HostToDevice;

  /// Returns true if \p Address falls inside this segment.
  bool contains(Addr Address) const {
    return Address >= Base && Address < Base + Bytes;
  }
};

/// The set of placed data objects for one kernel instance.
class KernelDataLayout {
public:
  KernelDataLayout() = default;

  /// Adds a segment; names must be unique.
  void addSegment(DataSegment Segment);

  /// Finds a segment by name; aborts if absent (placement bugs should fail
  /// loudly, not silently generate wild addresses).
  const DataSegment &segment(const std::string &Name) const;

  /// Returns true if a segment named \p Name exists.
  bool hasSegment(const std::string &Name) const;

  const std::vector<DataSegment> &segments() const { return Segments; }

  /// Sum of all segment sizes.
  uint64_t totalBytes() const;

  /// Places all of \p Kernel's data objects back to back starting at
  /// \p Base, aligning each to \p Align. This is the default layout used
  /// when no address-space model dictates placement.
  static KernelDataLayout makeLinear(KernelId Kernel, Addr Base,
                                     uint64_t Align = SegmentAlignBytes);

  /// Same, for an arbitrary object list (custom workloads).
  static KernelDataLayout makeLinear(const std::vector<DataObjectSpec> &Objects,
                                     Addr Base,
                                     uint64_t Align = SegmentAlignBytes);

  /// FNV-1a fingerprint over everything the trace generators read from
  /// this layout: segment order, names, placed addresses, sizes, and
  /// transfer directions. Identical fingerprints mean identical generated
  /// address streams; the result store keys on it.
  uint64_t fingerprint() const;

private:
  std::vector<DataSegment> Segments;
};

} // namespace hetsim

#endif // HETSIM_TRACE_DATALAYOUT_H
