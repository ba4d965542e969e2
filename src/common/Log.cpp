//===- common/Log.cpp -----------------------------------------------------===//

#include "common/Log.h"

#include <cstdarg>
#include <cstdio>

void hetsim::logWarning(const char *Format, ...) {
  std::fputs("hetsim warning: ", stderr);
  va_list Args;
  va_start(Args, Format);
  std::vfprintf(stderr, Format, Args);
  va_end(Args);
  std::fputc('\n', stderr);
}
