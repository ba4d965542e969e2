//===- core/ExtraWorkloads.h - Workloads beyond Table III -------*- C++ -*-===//
///
/// \file
/// Five additional workloads beyond the paper's six kernels, built
/// directly as lowered programs so the design-space machinery can be
/// exercised on patterns Table III does not cover:
///
///   stream triad — a[i] = b[i] + s*c[i]: pure bandwidth, zero reuse;
///   histogram    — data-dependent scatter into a small hot bin table;
///   spmv         — CSR sparse matrix-vector: irregular gathers of x[];
///   fft          — butterfly passes with doubling strides (cache-hostile
///                  at large strides, twiddle-table reuse);
///   bfs          — frontier expansion with random neighbor gathers and
///                  data-dependent visited checks.
///
/// They use the same placement models, transfer lowering rules and
/// block-trace generators as the paper kernels; sizes are parameters, so
/// scaling studies (communication fraction vs. data size) are possible.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_EXTRAWORKLOADS_H
#define HETSIM_CORE_EXTRAWORKLOADS_H

#include "core/Lowering.h"

namespace hetsim {

/// The extra workloads.
enum class ExtraWorkloadId : uint8_t {
  StreamTriad = 0,
  Histogram,
  Spmv,
  Fft,
  Bfs,
};

inline constexpr unsigned NumExtraWorkloads = 5;

/// Display name ("stream triad", "histogram", "spmv", "fft", "bfs").
const char *extraWorkloadName(ExtraWorkloadId Id);

/// All extra workloads.
const std::vector<ExtraWorkloadId> &allExtraWorkloads();

/// Builds a lowered program for \p Id on \p Config. \p Elements sets the
/// problem size (4B elements per stream; histogram input count; SpMV
/// non-zeros). The program has the canonical single-round shape:
/// transfer-in (model-dependent), one parallel round split evenly, a
/// transfer-out, and a small sequential finish.
LoweredProgram buildExtraWorkload(ExtraWorkloadId Id,
                                  const SystemConfig &Config,
                                  uint64_t Elements = 65536);

} // namespace hetsim

#endif // HETSIM_CORE_EXTRAWORKLOADS_H
