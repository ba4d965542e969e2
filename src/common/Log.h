//===- common/Log.h - Diagnostic warnings -----------------------*- C++ -*-===//
///
/// \file
/// Library code reports trouble that does not stop it (an unwritable
/// output file) or that explains an abort (the lint findings behind a
/// rejected lowering) through logWarning() rather than writing to stdio
/// directly, so every warning has one format.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_LOG_H
#define HETSIM_COMMON_LOG_H

namespace hetsim {

/// Prints "hetsim warning: <printf-formatted message>" and a newline to
/// stderr.
void logWarning(const char *Format, ...) __attribute__((format(printf, 1, 2)));

} // namespace hetsim

#endif // HETSIM_COMMON_LOG_H
