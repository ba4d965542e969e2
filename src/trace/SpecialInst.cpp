//===- trace/SpecialInst.cpp ----------------------------------------------===//

#include "trace/SpecialInst.h"

#include "common/Error.h"

using namespace hetsim;

const char *hetsim::specialInstName(SpecialInst Inst) {
  switch (Inst) {
  case SpecialInst::None:
    return "none";
  case SpecialInst::ApiPci:
    return "api-pci";
  case SpecialInst::ApiTr:
    return "api-tr";
  case SpecialInst::ApiAcq:
    return "api-acq";
  case SpecialInst::LibPf:
    return "lib-pf";
  case SpecialInst::DmaWait:
    return "dma-wait";
  case SpecialInst::KernelLaunch:
    return "kernel-launch";
  case SpecialInst::KernelJoin:
    return "kernel-join";
  }
  hetsim_unreachable("invalid special instruction");
}
