//===- tests/concurrent_round_test.cpp - Concurrent rounds, serial results ===//
///
/// \file
/// On a discrete-GPU system (CPU+GPU, LRB, GMAC) a parallel round's two
/// halves share no mutable state, so HeteroSimulator runs the GPU half on
/// a helper thread while the CPU half runs on the calling thread
/// (DESIGN.md §11). These tests hold the concurrent round to the serial
/// order bit for bit, every RunResult field as hex floats and every
/// metrics counter, over the three systems, all six kernels and five
/// memory-layer variants. They also pin the rule that decides which
/// systems overlap, and check that a failure in the GPU half reaches the
/// caller. The ThreadSanitizer leg of scripts/ci.sh gate 2 runs them too.
///
//===----------------------------------------------------------------------===//

#include "common/Config.h"
#include "core/HeteroSimulator.h"
#include "trace/KernelTraceGenerator.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>
#include <tuple>

using namespace hetsim;

namespace {

/// One memory-layer override set the differential covers.
struct Variant {
  const char *Name;
  const char *ConfigFile; ///< Under the source tree, or nullptr.
  const char *Key;        ///< One more override, or nullptr.
  const char *Value;
};

const Variant Variants[] = {
    {"default", nullptr, nullptr, nullptr},
    {"prefetch", "configs/prefetch.cfg", nullptr, nullptr},
    {"small_pages", "configs/small_pages.cfg", nullptr, nullptr},
    {"l3_256k", nullptr, "mem.l3_bytes", "262144"},
    {"mesh", nullptr, "mem.noc", "mesh"},
};
constexpr unsigned NumVariants = sizeof(Variants) / sizeof(Variants[0]);

ConfigStore overridesFor(const Variant &V) {
  ConfigStore Store;
  if (V.ConfigFile) {
    const std::string Path =
        std::string(HETSIM_SOURCE_DIR) + "/" + V.ConfigFile;
    EXPECT_TRUE(Store.loadFile(Path)) << Path;
  }
  if (V.Key)
    Store.set(V.Key, V.Value);
  return Store;
}

/// \p Text with every character that is not a letter or digit as '_'.
std::string identifier(std::string Text) {
  std::replace_if(
      Text.begin(), Text.end(),
      [](unsigned char C) { return !std::isalnum(C); }, '_');
  return Text;
}

const CaseStudy DiscreteStudies[] = {CaseStudy::CpuGpu, CaseStudy::Lrb,
                                     CaseStudy::Gmac};

using RoundParam = std::tuple<CaseStudy, KernelId, unsigned>;

class FastPathConcurrentRound : public ::testing::TestWithParam<RoundParam> {
};

} // namespace

TEST_P(FastPathConcurrentRound, MatchesSerialOrder) {
  const auto [Study, Kernel, VariantIndex] = GetParam();
  const SystemConfig Config =
      SystemConfig::forCaseStudy(Study, overridesFor(Variants[VariantIndex]));
  ASSERT_TRUE(roundHalvesShareNothing(Config));
  const LoweredProgram Program = lowerKernel(Kernel, Config);
  // At least one round has work on both PUs, so a helper thread runs.
  ASSERT_TRUE(std::any_of(
      Program.Steps.begin(), Program.Steps.end(), [](const ExecStep &Step) {
        return Step.Kind == ExecKind::ParallelCompute &&
               Step.CpuTrace.size() != 0 && Step.GpuTrace.size() != 0;
      }));

  HeteroSimulator Serial(Config);
  Serial.serializeRounds();
  const RunResult SerialResult = Serial.runLowered(Program);
  HeteroSimulator Concurrent(Config);
  const RunResult ConcurrentResult = Concurrent.runLowered(Program);

  EXPECT_EQ(exactText(SerialResult), exactText(ConcurrentResult));
  EXPECT_EQ(Serial.collectMetrics(SerialResult).values(),
            Concurrent.collectMetrics(ConcurrentResult).values());
}

INSTANTIATE_TEST_SUITE_P(
    Discrete, FastPathConcurrentRound,
    ::testing::Combine(::testing::ValuesIn(DiscreteStudies),
                       ::testing::ValuesIn(allKernels()),
                       ::testing::Range(0u, NumVariants)),
    [](const ::testing::TestParamInfo<RoundParam> &Info) {
      return identifier(std::string(caseStudyName(std::get<0>(Info.param))) +
                        "_" + kernelName(std::get<1>(Info.param)) + "_" +
                        Variants[std::get<2>(Info.param)].Name);
    });

namespace {

/// A generator whose every iteration fails: the half that expands it
/// throws partway through its round.
class FailingGenerator final : public KernelTraceGenerator {
public:
  FailingGenerator() : KernelTraceGenerator("failing", 0) {}

protected:
  void setUpCursors(GenState &, const KernelDataLayout &,
                    WorkSplit) const override {}
  void cpuIteration(TraceEmitter &, GenState &) const override {
    throw std::runtime_error("generation failed");
  }
  void gpuIteration(TraceEmitter &, GenState &) const override {
    throw std::runtime_error("generation failed");
  }
};

} // namespace

// The helper thread's exception is rethrown on the calling thread after
// the join, as the serial order throws it.
TEST(FastPathConcurrentRoundFailure, GpuHalfExceptionReachesCaller) {
  const SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  LoweredProgram Program = lowerKernel(KernelId::Reduction, Config);
  Program.BuiltFromKernel = false;
  const FailingGenerator Failing;
  for (ExecStep &Step : Program.Steps)
    if (Step.Kind == ExecKind::ParallelCompute && Step.GpuTrace.blocks())
      Step.GpuTrace = std::make_shared<const BlockTrace>(
          Failing, Step.GpuTrace.blocks()->request(),
          Step.GpuTrace.blocks()->layout());

  HeteroSimulator Serial(Config);
  Serial.serializeRounds();
  EXPECT_THROW(Serial.runLowered(Program), std::runtime_error);
  HeteroSimulator Concurrent(Config);
  EXPECT_THROW(Concurrent.runLowered(Program), std::runtime_error);
}

// The halves overlap only on the three discrete-GPU systems: Fusion's GPU
// shares the CPU's DRAM, and every other system shares the L3.
TEST(FastPathOverlapRule, HoldsOnlyForDiscreteSystems) {
  for (CaseStudy Study : allCaseStudies()) {
    const bool Discrete =
        std::find(std::begin(DiscreteStudies), std::end(DiscreteStudies),
                  Study) != std::end(DiscreteStudies);
    EXPECT_EQ(roundHalvesShareNothing(SystemConfig::forCaseStudy(Study)),
              Discrete)
        << caseStudyName(Study);
  }
  for (AddressSpaceKind Kind :
       {AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
        AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm})
    EXPECT_FALSE(
        roundHalvesShareNothing(SystemConfig::forAddressSpaceStudy(Kind)))
        << addressSpaceShortName(Kind);
  EXPECT_FALSE(roundHalvesShareNothing(SystemConfig::sandyBridgeStyle()));
}

// Sharing the L3, sharing the device, coherence or the interleaved
// driver's shared uncore each turn the overlap off.
TEST(FastPathOverlapRule, AnySharedStateTurnsItOff) {
  for (CaseStudy Study : DiscreteStudies) {
    const SystemConfig Base = SystemConfig::forCaseStudy(Study);
    ASSERT_TRUE(roundHalvesShareNothing(Base)) << caseStudyName(Study);

    ConfigStore Interleaved;
    Interleaved.set("sys.interleaved_contention", "true");
    EXPECT_FALSE(
        roundHalvesShareNothing(SystemConfig::forCaseStudy(Study, Interleaved)))
        << caseStudyName(Study);

    SystemConfig SharedL3 = Base;
    SharedL3.Hier.GpuSharesL3 = true;
    EXPECT_FALSE(roundHalvesShareNothing(SharedL3)) << caseStudyName(Study);

    SystemConfig SharedDevice = Base;
    SharedDevice.Hier.SeparateGpuDram = false;
    EXPECT_FALSE(roundHalvesShareNothing(SharedDevice))
        << caseStudyName(Study);

    SystemConfig Coherent = Base;
    Coherent.Hier.HwCoherence = true;
    EXPECT_FALSE(roundHalvesShareNothing(Coherent)) << caseStudyName(Study);
  }
}
