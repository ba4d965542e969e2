//===- core/Experiments.h - Paper experiment harness ------------*- C++ -*-===//
///
/// \file
/// Runs the paper's experiments and renders their tables/figures as text.
/// Each bench binary regenerates one table or figure by calling into this
/// harness; tests assert on the same data.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_EXPERIMENTS_H
#define HETSIM_CORE_EXPERIMENTS_H

#include "common/TextTable.h"
#include "core/SweepRunner.h"

namespace hetsim {

/// One (system, kernel) measurement.
struct ExperimentRow {
  std::string System;
  KernelId Kernel = KernelId::Reduction;
  RunResult Result;
};

/// Runs all six kernels on the five case-study systems (Figures 5 and 6)
/// through the parallel sweep engine. \p Jobs selects the worker count
/// (0 = HETSIM_JOBS / hardware_concurrency; 1 = serial); rows come back
/// in the fixed (system, kernel) presentation order regardless of job
/// count. When \p Telemetry is non-null the sweep's wall-clock stats are
/// stored there.
std::vector<ExperimentRow> runCaseStudies(const ConfigStore &Overrides = {},
                                          unsigned Jobs = 0,
                                          SweepTelemetry *Telemetry = nullptr);

/// Runs all six kernels on the four address-space options with shared
/// cache and ideal communication (Figure 7). Same sweep-engine contract
/// as runCaseStudies.
std::vector<ExperimentRow>
runAddressSpaceStudy(const ConfigStore &Overrides = {}, unsigned Jobs = 0,
                     SweepTelemetry *Telemetry = nullptr);

/// Figure 5: execution time (normalized to IDEAL-HETERO per kernel, when
/// present) split into sequential / parallel / communication.
TextTable renderFigure5(const std::vector<ExperimentRow> &Rows);

/// Figure 6: communication overhead only (microseconds and fraction).
TextTable renderFigure6(const std::vector<ExperimentRow> &Rows);

/// Figure 7: total time per address-space option, normalized to UNI.
TextTable renderFigure7(const std::vector<ExperimentRow> &Rows);

/// Table I: the qualitative system survey.
TextTable renderTable1();

/// Table II: the baseline system configuration in use.
TextTable renderTable2(const SystemConfig &Config);

/// Table III: benchmark characteristics, as *measured* from the lowered
/// programs (instruction counts, communications, initial transfer size).
TextTable renderTable3();

/// Table IV: communication-overhead parameters in use.
TextTable renderTable4(const CommParams &Params);

/// Table V: communication source lines per kernel and address space.
TextTable renderTable5();

/// One point of a work-partitioning sweep (the Qilin-style extension;
/// the paper divides work evenly and cites [25] for optimal splits).
struct PartitionPoint {
  double CpuFraction = 0.5;
  double TotalNs = 0;
  double ParallelNs = 0;
};

/// One kernel's partition sweep: Steps+1 evenly spaced CPU fractions in
/// [0, 1].
struct PartitionSweep {
  KernelId Kernel = KernelId::Reduction;
  unsigned Steps = 10;
};

/// Runs every sweep of \p Sweeps on \p Config as one sweep-engine run, so
/// all their points share the dispatch, and returns each sweep's points
/// in fraction order, index-aligned with \p Sweeps.
std::vector<std::vector<PartitionPoint>>
sweepPartitions(const SystemConfig &Config,
                const std::vector<PartitionSweep> &Sweeps, unsigned Jobs = 0,
                SweepTelemetry *Telemetry = nullptr);

/// Writes \p Table as CSV to $HETSIM_CSV_DIR/<Name>.csv when that
/// environment variable is set (machine-readable experiment export).
/// Returns true if a file was written.
bool maybeExportCsv(const std::string &Name, const TextTable &Table);

} // namespace hetsim

#endif // HETSIM_CORE_EXPERIMENTS_H
