//===- memory/SoftwareCoherence.cpp ---------------------------------------===//

#include "memory/SoftwareCoherence.h"

#include "common/Error.h"

using namespace hetsim;

SoftwareCoherence::Object &SoftwareCoherence::find(const std::string &Name) {
  for (Object &O : Objects)
    if (O.Name == Name)
      return O;
  fatalError(("software coherence: unknown object " + Name).c_str());
}

void SoftwareCoherence::registerObject(const std::string &Name,
                                       uint64_t Bytes, SwCohState Initial) {
  for (const Object &O : Objects)
    if (O.Name == Name)
      fatalError(("software coherence: object registered twice: " + Name)
                     .c_str());
  Objects.push_back({Name, Bytes, Initial});
}

uint64_t SoftwareCoherence::onAccAccess(const std::string &Name,
                                        bool IsWrite) {
  Object &O = find(Name);
  uint64_t Moved = 0;
  switch (O.State) {
  case SwCohState::HostValid:
    // Stale accelerator copy: the runtime copies in.
    Moved = O.Bytes;
    ++Stats.HostToDevTransfers;
    Stats.BytesMoved += Moved;
    break;
  case SwCohState::AccValid:
  case SwCohState::BothValid:
    ++Stats.AvoidedTransfers;
    break;
  }
  O.State = IsWrite ? SwCohState::AccValid : SwCohState::BothValid;
  return Moved;
}

uint64_t SoftwareCoherence::onHostAccess(const std::string &Name,
                                         bool IsWrite) {
  Object &O = find(Name);
  uint64_t Moved = 0;
  switch (O.State) {
  case SwCohState::AccValid:
    Moved = O.Bytes;
    ++Stats.DevToHostTransfers;
    Stats.BytesMoved += Moved;
    break;
  case SwCohState::HostValid:
  case SwCohState::BothValid:
    ++Stats.AvoidedTransfers;
    break;
  }
  O.State = IsWrite ? SwCohState::HostValid : SwCohState::BothValid;
  return Moved;
}

void SoftwareCoherence::onAccOverwrite(const std::string &Name) {
  Object &O = find(Name);
  if (O.State != SwCohState::AccValid)
    ++Stats.AvoidedTransfers;
  O.State = SwCohState::AccValid;
}

SwCohState SoftwareCoherence::state(const std::string &Name) const {
  return const_cast<SoftwareCoherence *>(this)->find(Name).State;
}
