//===- trace/DataLayout.cpp -----------------------------------------------===//

#include "trace/DataLayout.h"

#include "common/Error.h"

#include <cassert>

using namespace hetsim;

void KernelDataLayout::addSegment(DataSegment Segment) {
  assert(!hasSegment(Segment.Name) && "duplicate data-segment name");
  assert(Segment.Bytes > 0 && "empty data segment");
  Segments.push_back(std::move(Segment));
}

const DataSegment &KernelDataLayout::segment(const std::string &Name) const {
  for (const DataSegment &S : Segments)
    if (S.Name == Name)
      return S;
  fatalError(("unknown data segment: " + Name).c_str());
}

bool KernelDataLayout::hasSegment(const std::string &Name) const {
  for (const DataSegment &S : Segments)
    if (S.Name == Name)
      return true;
  return false;
}

namespace {

uint64_t fnv1aBytes(uint64_t Hash, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Bytes; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

uint64_t fnv1aWord(uint64_t Hash, uint64_t Value) {
  return fnv1aBytes(Hash, &Value, sizeof(Value));
}

} // namespace

uint64_t KernelDataLayout::fingerprint() const {
  uint64_t Hash = 14695981039346656037ull;
  for (const DataSegment &Segment : Segments) {
    Hash = fnv1aBytes(Hash, Segment.Name.data(), Segment.Name.size());
    Hash = fnv1aWord(Hash, Segment.Base);
    Hash = fnv1aWord(Hash, Segment.Bytes);
    Hash = fnv1aWord(Hash, static_cast<uint64_t>(Segment.Dir));
  }
  return Hash;
}

uint64_t KernelDataLayout::totalBytes() const {
  uint64_t Total = 0;
  for (const DataSegment &S : Segments)
    Total += S.Bytes;
  return Total;
}

KernelDataLayout KernelDataLayout::makeLinear(KernelId Kernel, Addr Base,
                                              uint64_t Align) {
  return makeLinear(kernelDataObjects(Kernel), Base, Align);
}

KernelDataLayout
KernelDataLayout::makeLinear(const std::vector<DataObjectSpec> &Objects,
                             Addr Base, uint64_t Align) {
  assert(isPowerOf2(Align) && "alignment must be a power of two");
  KernelDataLayout Layout;
  Addr Cursor = alignUp(Base, Align);
  for (const DataObjectSpec &Spec : Objects) {
    DataSegment Segment;
    Segment.Name = Spec.Name;
    Segment.Base = Cursor;
    Segment.Bytes = Spec.Bytes;
    Segment.Dir = Spec.Dir;
    Cursor = alignUp(Cursor + Spec.Bytes, Align);
    Layout.addSegment(std::move(Segment));
  }
  return Layout;
}
