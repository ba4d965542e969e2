//===- memory/MemFast.cpp -------------------------------------------------===//

#include "memory/MemFast.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace hetsim;

static std::atomic<int> MemFastOverride{-1};

MemFastMode hetsim::memFastMode() {
  int Override = MemFastOverride.load(std::memory_order_relaxed);
  if (Override >= 0)
    return MemFastMode(Override);
  const char *Env = std::getenv("HETSIM_MEMFAST");
  if (!Env || !*Env || std::strcmp(Env, "0") == 0)
    return MemFastMode::Off;
  if (std::strcmp(Env, "sampled") == 0)
    return MemFastMode::Sampled;
  std::fprintf(stderr,
               "error: HETSIM_MEMFAST='%s' is not recognised; accepted values "
               "are unset, 0 and sampled\n",
               Env);
  std::exit(2);
}

void hetsim::setMemFastForTesting(int Mode) {
  MemFastOverride.store(Mode > 1 ? 1 : Mode, std::memory_order_relaxed);
}

unsigned hetsim::memFastSampleSkip() {
  static unsigned Cached = [] {
    const char *Env = std::getenv("HETSIM_MEMFAST_SKIP");
    if (!Env || !*Env)
      return 30u;
    long V = std::atol(Env);
    if (V < 1)
      V = 1;
    if (V > 10000)
      V = 10000;
    return unsigned(V);
  }();
  return Cached;
}
