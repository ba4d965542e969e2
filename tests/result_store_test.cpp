//===- tests/result_store_test.cpp - Content-addressed result cache -------===//
///
/// \file
/// The result store's whole contract is "serving a stored entry is
/// indistinguishable from simulating": every RunResult field (doubles
/// included) must round-trip exactly, keys must separate any two inputs
/// the simulator distinguishes, corrupt files must read as misses, and an
/// interrupted-then-resumed sweep must render byte-identically to an
/// uninterrupted one.
///
//===----------------------------------------------------------------------===//

#include "core/ResultStore.h"
#include "core/SweepRunner.h"
#include "trace/ComputeBlock.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

using namespace hetsim;

namespace {

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

void expectSegmentEq(const SegmentResult &A, const SegmentResult &B) {
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Insts, B.Insts);
  EXPECT_EQ(A.MemAccesses, B.MemAccesses);
  EXPECT_EQ(A.MemLatencySum, B.MemLatencySum);
  EXPECT_EQ(A.MemLatencyMax, B.MemLatencyMax);
  EXPECT_EQ(A.BranchMispredicts, B.BranchMispredicts);
  EXPECT_EQ(A.ICacheMisses, B.ICacheMisses);
  EXPECT_EQ(A.StoreForwards, B.StoreForwards);
  EXPECT_EQ(A.PageFaults, B.PageFaults);
  EXPECT_EQ(A.PageFaultCycles, B.PageFaultCycles);
}

/// Exact equality, doubles included — hex-float serialization means a
/// loaded entry must be bit-for-bit what was saved.
void expectResultEq(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.Time.SequentialNs, B.Time.SequentialNs);
  EXPECT_EQ(A.Time.ParallelNs, B.Time.ParallelNs);
  EXPECT_EQ(A.Time.CommunicationNs, B.Time.CommunicationNs);
  for (unsigned P = 0; P != NumRunPhases; ++P)
    EXPECT_EQ(A.Phases.Ns[P], B.Phases.Ns[P]) << "phase " << P;
  expectSegmentEq(A.CpuTotal, B.CpuTotal);
  expectSegmentEq(A.GpuTotal, B.GpuTotal);
  EXPECT_EQ(A.TransferredBytes, B.TransferredBytes);
  EXPECT_EQ(A.TransferCount, B.TransferCount);
  EXPECT_EQ(A.PageFaults, B.PageFaults);
  EXPECT_EQ(A.OwnershipActions, B.OwnershipActions);
  EXPECT_EQ(A.PushNs, B.PushNs);
  EXPECT_EQ(A.CommSourceLines, B.CommSourceLines);
}

ResultStore::Entry simulateOne(const SystemConfig &Config,
                               const LoweredProgram &Program) {
  HeteroSimulator Simulator(Config);
  ResultStore::Entry E;
  E.Result = Simulator.runLowered(Program);
  E.Metrics = Simulator.collectMetrics(E.Result);
  return E;
}

TEST(ResultStore, RoundTripIsExact) {
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  ResultStore::Entry Saved = simulateOne(Config, Program);

  ResultStore Store(freshDir("result_store_roundtrip"));
  ASSERT_TRUE(Store.enabled());
  ResultStore::Key K = ResultStore::keyFor(Config, Program);

  ResultStore::Entry Loaded;
  EXPECT_FALSE(Store.load(K, Loaded)) << "cold store must miss";
  ASSERT_TRUE(Store.save(K, Saved));
  ASSERT_TRUE(Store.load(K, Loaded));
  expectResultEq(Loaded.Result, Saved.Result);
  ASSERT_EQ(Loaded.Metrics.values().size(), Saved.Metrics.values().size());
  for (const auto &[Name, Value] : Saved.Metrics.values()) {
    auto It = Loaded.Metrics.values().find(Name);
    ASSERT_NE(It, Loaded.Metrics.values().end()) << Name;
    EXPECT_EQ(It->second, Value) << Name;
  }
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.misses(), 1u);
  EXPECT_EQ(Store.stores(), 1u);
}

TEST(ResultStore, KeysSeparateConfigsAndKernels) {
  SystemConfig Gmac = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  SystemConfig Fusion = SystemConfig::forCaseStudy(CaseStudy::Fusion);
  LoweredProgram GmacRed = lowerKernel(KernelId::Reduction, Gmac);
  LoweredProgram FusionRed = lowerKernel(KernelId::Reduction, Fusion);
  LoweredProgram GmacSort = lowerKernel(KernelId::MergeSort, Gmac);

  ResultStore::Key A = ResultStore::keyFor(Gmac, GmacRed);
  ResultStore::Key B = ResultStore::keyFor(Fusion, FusionRed);
  ResultStore::Key C = ResultStore::keyFor(Gmac, GmacSort);
  EXPECT_NE(A.ConfigHash, B.ConfigHash);
  EXPECT_NE(A.TraceHash, C.TraceHash);
  EXPECT_EQ(A.CodeVersion, ResultStoreCodeVersion);

  // Keys are pure content functions: rederiving yields the same key.
  ResultStore::Key A2 =
      ResultStore::keyFor(Gmac, lowerKernel(KernelId::Reduction, Gmac));
  EXPECT_EQ(A.ConfigHash, A2.ConfigHash);
  EXPECT_EQ(A.TraceHash, A2.TraceHash);
}

// A trace key names the generator: two programs that differ only in which
// generator expands their blocks (same kind, request and layout, and the
// same default Program.Kernel, as a hand-built custom program leaves it)
// must not share a key.
TEST(ResultStore, TraceKeysNameTheGenerator) {
  KernelDataLayout Layout =
      KernelDataLayout::makeLinear(KernelId::Reduction, region::CpuPrivateBase);
  auto SerialProgram = [&](KernelId Id) {
    LoweredProgram Program;
    ExecStep Step;
    Step.Kind = ExecKind::SerialCompute;
    Step.CpuTrace = SharedTrace(std::make_shared<const BlockTrace>(
        KernelTraceGenerator::forKernel(Id), 1000, 1, Layout));
    Program.Steps.push_back(std::move(Step));
    return Program;
  };
  EXPECT_NE(hashLoweredTraces(SerialProgram(KernelId::Reduction)),
            hashLoweredTraces(SerialProgram(KernelId::Dct)));
  EXPECT_EQ(hashLoweredTraces(SerialProgram(KernelId::Reduction)),
            hashLoweredTraces(SerialProgram(KernelId::Reduction)));
}

// The code version is hashed from the sources at build time: a store
// written by any other build must miss, even if its entry is renamed to
// the new version's file name.
TEST(ResultStore, OtherCodeVersionMisses) {
  std::string Dir = freshDir("result_store_version");
  ResultStore Store(Dir);
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::Gmac);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  ResultStore::Key Old = ResultStore::keyFor(Config, Program);
  ASSERT_TRUE(Store.save(Old, simulateOne(Config, Program)));

  ResultStore::Key New = Old;
  New.CodeVersion = Old.CodeVersion + 1;
  ResultStore::Entry E;
  EXPECT_FALSE(Store.load(New, E));

  std::vector<std::filesystem::path> Entries;
  for (const auto &File : std::filesystem::directory_iterator(Dir))
    Entries.push_back(File.path());
  ASSERT_EQ(Entries.size(), 1u);
  std::string Name = Entries[0].filename().string();
  Name.replace(Name.rfind('-') + 1, std::string::npos,
               std::to_string(New.CodeVersion) + ".result");
  std::filesystem::rename(Entries[0], Entries[0].parent_path() / Name);
  EXPECT_FALSE(Store.load(New, E));
  EXPECT_EQ(Store.hits(), 0u);
}

TEST(ResultStore, ConfigOverrideChangesKey) {
  SystemConfig Base = SystemConfig::forCaseStudy(CaseStudy::Lrb);
  ConfigStore Overrides;
  Overrides.setInt("comm.lib_pf", 0);
  SystemConfig Tweaked = SystemConfig::forCaseStudy(CaseStudy::Lrb, Overrides);
  EXPECT_NE(hashSystemConfig(Base), hashSystemConfig(Tweaked));
}

TEST(ResultStore, DisabledStoreMissesAndRefusesSaves) {
  ResultStore Store((std::string()));
  EXPECT_FALSE(Store.enabled());
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  ResultStore::Key K = ResultStore::keyFor(Config, Program);
  ResultStore::Entry E;
  EXPECT_FALSE(Store.load(K, E));
  EXPECT_FALSE(Store.save(K, simulateOne(Config, Program)));
}

TEST(ResultStore, TruncatedEntryReadsAsMiss) {
  std::string Dir = freshDir("result_store_truncated");
  ResultStore Store(Dir);
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  ResultStore::Key K = ResultStore::keyFor(Config, Program);
  ASSERT_TRUE(Store.save(K, simulateOne(Config, Program)));

  // Chop every stored entry in half — a killed writer can't produce this
  // (writes are temp+rename), but a resume must still survive it.
  for (const auto &File : std::filesystem::directory_iterator(Dir)) {
    auto Size = std::filesystem::file_size(File.path());
    std::filesystem::resize_file(File.path(), Size / 2);
  }
  ResultStore::Entry E;
  EXPECT_FALSE(Store.load(K, E));

  // And garbage content is equally a miss, not a crash.
  for (const auto &File : std::filesystem::directory_iterator(Dir)) {
    std::ofstream Out(File.path(), std::ios::trunc);
    Out << "not a result file\n";
  }
  EXPECT_FALSE(Store.load(K, E));
}

TEST(ResultStore, InterruptedSweepResumesByteIdentically) {
  std::vector<SweepPoint> Points;
  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::Gmac})
    for (KernelId Kernel : {KernelId::Reduction, KernelId::MergeSort})
      Points.emplace_back(SystemConfig::forCaseStudy(Study), Kernel);

  // Reference: one uninterrupted run with no store.
  SweepRunner Reference(1);
  std::vector<RunResult> Want = Reference.run(Points);

  // "Killed" run: only the first half of the sweep completes, persisting
  // its points into the store.
  std::string Dir = freshDir("result_store_resume");
  std::vector<SweepPoint> Half(Points.begin(),
                               Points.begin() + long(Points.size() / 2));
  SweepRunner Interrupted(1);
  Interrupted.setResultStoreDir(Dir);
  Interrupted.run(Half);
  EXPECT_EQ(Interrupted.telemetry().StoreMisses, Half.size());

  // Resume: the full sweep against the same store serves the completed
  // half and simulates the rest — and matches the reference exactly.
  SweepRunner Resumed(1);
  Resumed.setResultStoreDir(Dir);
  std::vector<RunResult> Got = Resumed.run(Points);
  EXPECT_EQ(Resumed.telemetry().StoreHits, Half.size());
  EXPECT_EQ(Resumed.telemetry().StoreMisses, Points.size() - Half.size());
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    SCOPED_TRACE("point " + std::to_string(I));
    expectResultEq(Got[I], Want[I]);
  }
  // The rendered metrics document — what experiment scripts diff — is
  // byte-identical too.
  EXPECT_EQ(renderSweepMetricsJson(Points, Resumed.metrics()),
            renderSweepMetricsJson(Points, Reference.metrics()));

  // A third run is served entirely from the store.
  SweepRunner Warm(1);
  Warm.setResultStoreDir(Dir);
  std::vector<RunResult> Served = Warm.run(Points);
  EXPECT_EQ(Warm.telemetry().StoreHits, Points.size());
  EXPECT_EQ(Warm.telemetry().StoreMisses, 0u);
  for (size_t I = 0; I != Served.size(); ++I)
    expectResultEq(Served[I], Want[I]);
}

TEST(ResultStore, FromEnvironmentHonorsVariable) {
  std::string Dir = freshDir("result_store_env");
  ::setenv("HETSIM_RESULT_STORE", Dir.c_str(), 1);
  ResultStore Enabled = ResultStore::fromEnvironment();
  ::unsetenv("HETSIM_RESULT_STORE");
  ResultStore Disabled = ResultStore::fromEnvironment();
  EXPECT_TRUE(Enabled.enabled());
  EXPECT_EQ(Enabled.root(), Dir);
  EXPECT_FALSE(Disabled.enabled());
}

} // namespace
