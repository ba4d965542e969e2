//===- tests/common_test.cpp - common/ unit tests -------------------------===//

#include "common/Config.h"
#include "common/HostLine.h"
#include "common/Random.h"
#include "common/Stats.h"
#include "common/StringUtil.h"
#include "common/TextTable.h"
#include "common/Types.h"
#include "common/Units.h"
#include "core/SystemConfig.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// Types helpers.
//===----------------------------------------------------------------------===//

TEST(Types, AlignHelpers) {
  EXPECT_EQ(alignUp(0, 64), 0u);
  EXPECT_EQ(alignUp(1, 64), 64u);
  EXPECT_EQ(alignUp(64, 64), 64u);
  EXPECT_EQ(alignUp(65, 64), 128u);
  EXPECT_EQ(alignDown(63, 64), 0u);
  EXPECT_EQ(alignDown(64, 64), 64u);
  EXPECT_EQ(alignDown(127, 64), 64u);
}

TEST(Types, PowerOf2AndLog2) {
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(64));
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_FALSE(isPowerOf2(96));
  EXPECT_EQ(log2Exact(1), 0u);
  EXPECT_EQ(log2Exact(64), 6u);
  EXPECT_EQ(log2Exact(4096), 12u);
  EXPECT_EQ(log2Exact(uint64_t(1) << 63), 63u);
  // Off powers of two it floors, and 0 maps to 0.
  EXPECT_EQ(log2Exact(0), 0u);
  EXPECT_EQ(log2Exact(96), 6u);
  static_assert(log2Exact(CacheLineBytes) == 6, "usable in constants");
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceilDiv(0, 4), 0u);
  EXPECT_EQ(ceilDiv(1, 4), 1u);
  EXPECT_EQ(ceilDiv(4, 4), 1u);
  EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Types, PuHelpers) {
  EXPECT_STREQ(puKindName(PuKind::Cpu), "CPU");
  EXPECT_STREQ(puKindName(PuKind::Gpu), "GPU");
  EXPECT_EQ(otherPu(PuKind::Cpu), PuKind::Gpu);
  EXPECT_EQ(otherPu(PuKind::Gpu), PuKind::Cpu);
  EXPECT_EQ(puIndex(PuKind::Cpu), 0u);
  EXPECT_EQ(puIndex(PuKind::Gpu), 1u);
}

//===----------------------------------------------------------------------===//
// Units: clock-domain conversion.
//===----------------------------------------------------------------------===//

TEST(Units, CyclesToNs) {
  // 3.5 cycles per ns on the CPU; 1.5 on the GPU.
  EXPECT_DOUBLE_EQ(cyclesToNs(PuKind::Cpu, 3500), 1000.0);
  EXPECT_DOUBLE_EQ(cyclesToNs(PuKind::Gpu, 1500), 1000.0);
}

TEST(Units, NsToCyclesRoundsUp) {
  EXPECT_EQ(nsToCycles(PuKind::Cpu, 1.0), 4u);  // 3.5 -> 4.
  EXPECT_EQ(nsToCycles(PuKind::Cpu, 2.0), 7u);  // Exactly 7.
  EXPECT_EQ(nsToCycles(PuKind::Gpu, 1.0), 2u);  // 1.5 -> 2.
}

TEST(Units, ConvertCyclesBetweenDomains) {
  // 7 CPU cycles = 2ns = exactly 3 GPU cycles.
  EXPECT_EQ(convertCycles(PuKind::Cpu, PuKind::Gpu, 7), 3u);
  // 3 GPU cycles = 2ns = exactly 7 CPU cycles.
  EXPECT_EQ(convertCycles(PuKind::Gpu, PuKind::Cpu, 3), 7u);
  // Identity.
  EXPECT_EQ(convertCycles(PuKind::Cpu, PuKind::Cpu, 123), 123u);
}

TEST(Units, TransferCycles) {
  // 16 bytes at 16GB/s = 1ns = 3.5 CPU cycles -> rounds to 4.
  EXPECT_EQ(transferCycles(PuKind::Cpu, 16, 16e9), 4u);
  // 0 bytes costs 0.
  EXPECT_EQ(transferCycles(PuKind::Cpu, 0, 16e9), 0u);
}

//===----------------------------------------------------------------------===//
// ConfigStore.
//===----------------------------------------------------------------------===//

TEST(Config, TypedAccessors) {
  ConfigStore Config;
  Config.setInt("a", 42);
  Config.set("b", "2.5");
  Config.setBool("c", true);
  Config.set("d", "hello");
  EXPECT_EQ(Config.getUInt("a", 0), 42u);
  EXPECT_DOUBLE_EQ(Config.getDouble("b", 0), 2.5);
  EXPECT_TRUE(Config.getBool("c", false));
  EXPECT_EQ(Config.getString("d", ""), "hello");
  for (const char *V : {"1", "true", "yes", "on"}) {
    Config.set("c", V);
    EXPECT_TRUE(Config.getBool("c", false)) << V;
  }
  for (const char *V : {"0", "false", "no", "off"}) {
    Config.set("c", V);
    EXPECT_FALSE(Config.getBool("c", true)) << V;
  }
}

TEST(Config, DefaultsForMissingKeys) {
  ConfigStore Config;
  EXPECT_EQ(Config.getUInt("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(Config.getDouble("missing", -7.5), -7.5);
  EXPECT_FALSE(Config.getBool("missing", false));
  EXPECT_EQ(Config.getString("missing", "dflt"), "dflt");
  EXPECT_EQ(Config.size(), 0u);
}

TEST(Config, ParseAssignment) {
  ConfigStore Config;
  EXPECT_TRUE(Config.parseAssignment("  key = 17 "));
  EXPECT_EQ(Config.getUInt("key", 0), 17u);
  EXPECT_FALSE(Config.parseAssignment("no-equals-sign"));
  EXPECT_FALSE(Config.parseAssignment("=value"));
}

TEST(Config, ParseLinesWithComments) {
  ConfigStore Config;
  unsigned Applied =
      Config.parseLines("a=1\n# comment\nb=2 # trailing\n\n", "test");
  EXPECT_EQ(Applied, 2u);
  EXPECT_EQ(Config.getUInt("a", 0), 1u);
  EXPECT_EQ(Config.getUInt("b", 0), 2u);
}

// The command line composes overrides in one store: a --config file's
// assignments first, then each key=value argument, so a later assignment
// wins and the other keys stay.
TEST(Config, MergeOtherWins) {
  ConfigStore Config;
  Config.parseLines("x=1\ny=2\n", "file.cfg");
  EXPECT_TRUE(Config.parseAssignment("y=20"));
  EXPECT_EQ(Config.getUInt("x", 0), 1u);
  EXPECT_EQ(Config.getUInt("y", 0), 20u);
  EXPECT_EQ(Config.size(), 2u);
}

TEST(Config, KeysSorted) {
  ConfigStore Config;
  Config.setInt("zebra", 1);
  Config.setInt("alpha", 2);
  auto Keys = Config.keys();
  ASSERT_EQ(Keys.size(), 2u);
  EXPECT_EQ(Keys[0], "alpha");
  EXPECT_EQ(Keys[1], "zebra");
}

TEST(Config, HexValues) {
  ConfigStore Config;
  Config.set("addr", "0x40");
  EXPECT_EQ(Config.getUInt("addr", 0), 64u);
}

// A present value that is not of the requested type is bad input: the
// getter names the key and the value and exits with status 2. So is a
// value of the right type that the simulator cannot build.
TEST(ConfigDeathTest, MalformedValuesAreRejected) {
  struct Case {
    const char *Value;
    std::function<void(const ConfigStore &)> Get;
    const char *Type;
    const char *Key = "k";
    /// Another key=value set alongside, or nullptr.
    const char *AlsoKey = nullptr;
    const char *AlsoValue = nullptr;
  };
  auto UInt = [](const ConfigStore &C) { C.getUInt("k", 0); };
  auto Double = [](const ConfigStore &C) { C.getDouble("k", 0); };
  auto Bool = [](const ConfigStore &C) { C.getBool("k", false); };
  // Values of the right type that the simulator cannot build.
  auto System = [](const ConfigStore &C) {
    SystemConfig::forCaseStudy(CaseStudy::Lrb, C);
  };
  const Case Cases[] = {
      {"-5", UInt, "unsigned integer"},
      {"+5", UInt, "unsigned integer"},
      {"banana", UInt, "unsigned integer"},
      {"banana", Double, "number"},
      {"12x", UInt, "unsigned integer"},
      {"8e9GB", Double, "number"},
      {"1.5", UInt, "unsigned integer"},
      {"", UInt, "unsigned integer"},
      {"", Double, "number"},
      {"99999999999999999999", UInt, "unsigned integer"},
      {"maybe", Bool, "boolean"},
      {"0", System, "ROB size", "cpu.rob_entries"},
      {"0", System, "L3 size", "mem.l3_bytes"},
      {"1000", System, "L3 size", "mem.l3_bytes"},
      {"0", System, "page size", "mem.gpu_page_bytes"},
      {"3000", System, "page size", "mem.cpu_page_bytes"},
      {"torus", System, "NoC topology", "mem.noc"},
      // A rate that is not positive and finite would make transfers free
      // or endless.
      {"0", System, "rate", "comm.pci_bytes_per_sec"},
      {"-5", System, "rate", "comm.pci_bytes_per_sec"},
      {"nan", System, "rate", "comm.pci_bytes_per_sec"},
      {"inf", System, "rate", "comm.pci_bytes_per_sec"},
      {"0", System, "rate", "comm.pageable_rate_factor"},
      {"-0.5", System, "rate", "comm.pageable_rate_factor"},
      {"nan", System, "rate", "comm.pageable_rate_factor"},
      {"inf", System, "rate", "comm.pageable_rate_factor"},
      // Positive but so small that a transfer of the whole device would
      // overflow a cycle count: rejected once every key is applied.
      {"1e-300", System, "rate", "comm.pci_bytes_per_sec"},
      {"1e-300", System, "rate", "comm.pageable_rate_factor",
       "comm.pinned_host", "false"},
  };
  // A string as a regex literal ("+5" has a '+', keys have dots).
  auto Quote = [](const char *Text) {
    std::string Quoted;
    for (const char *P = Text; *P; ++P)
      Quoted += std::string("[") + *P + "]";
    return Quoted;
  };
  for (const Case &C : Cases) {
    ConfigStore Config;
    Config.set(C.Key, C.Value);
    if (C.AlsoKey)
      Config.set(C.AlsoKey, C.AlsoValue);
    EXPECT_EXIT(C.Get(Config), ::testing::ExitedWithCode(2),
                "error: config key '" + Quote(C.Key) + "' has value '" +
                    Quote(C.Value) + "', which is not a valid " + C.Type)
        << C.Key << "='" << C.Value << "' as " << C.Type;
  }
}

// A key outside SystemConfig's key table is a typo, not a tunable: it
// exits 2 instead of being silently ignored.
TEST(ConfigDeathTest, UnknownKeysAreRejected) {
  for (const char *Key : {"no.such.key", "l1.size", "energy.l1_pj"}) {
    ConfigStore Config;
    Config.set(Key, "3");
    EXPECT_EXIT(SystemConfig::forCaseStudy(CaseStudy::Lrb, Config),
                ::testing::ExitedWithCode(2),
                std::string("error: unknown config key '") + Key + "'")
        << Key;
  }
}

//===----------------------------------------------------------------------===//
// Stats.
//===----------------------------------------------------------------------===//

TEST(Stats, CountersDefaultZero) {
  StatRegistry Stats;
  EXPECT_EQ(Stats.counter("never.set"), 0u);
}

// A counter two threads write keeps one slot per thread; every read sums
// the registry's own value and the bound slots.
TEST(Stats, BoundSlotsAddToTheirCounter) {
  StatRegistry Stats;
  uint64_t A = 3, B = 4;
  Stats.bindCounter("mem.merges", A);
  Stats.bindCounter("mem.merges", B);
  EXPECT_EQ(Stats.counter("mem.merges"), 7u);
  Stats.increment("mem.merges", 10);
  ++A;
  EXPECT_EQ(Stats.counter("mem.merges"), 18u);
  EXPECT_EQ(Stats.counterNames(), std::vector<std::string>{"mem.merges"});
  EXPECT_EQ(Stats.renderCounters(), "mem.merges = 18\n");
}

// Each block starts on a host line and owns whole lines: the words up to
// the next line boundary are usable and survive the other blocks' writes.
TEST(HostLine, BlocksStartOnALineAndOwnWholeLines) {
  std::vector<HostLineVector<uint8_t>> Blocks;
  for (size_t Bytes = 1; Bytes <= 200; ++Bytes)
    Blocks.emplace_back(Bytes, uint8_t(Bytes));
  for (const HostLineVector<uint8_t> &Block : Blocks) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Block.data()) % HostLineBytes, 0u);
    for (uint8_t Byte : Block)
      EXPECT_EQ(Byte, uint8_t(Block.size()));
  }
  HostLineVector<uint64_t> Grown;
  for (uint64_t I = 0; I != 1000; ++I)
    Grown.push_back(I);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Grown.data()) % HostLineBytes, 0u);
  EXPECT_EQ(Grown[999], 999u);
}

TEST(Stats, IncrementAndSet) {
  StatRegistry Stats;
  Stats.increment("hits");
  Stats.increment("hits", 4);
  EXPECT_EQ(Stats.counter("hits"), 5u);
  // Components set and bump their counters through the registered
  // reference.
  Stats.counterRef("hits") = 2;
  EXPECT_EQ(Stats.counter("hits"), 2u);
}

// The registry's distributions are power-of-two histograms, sampled
// through the reference histogramRef() registers.
TEST(Stats, Distribution) {
  StatRegistry Stats;
  StatHistogram &Lat = Stats.histogramRef("lat");
  Lat.addSample(10);
  Lat.addSample(30);
  Lat.addSample(20);
  const StatHistogram &D = Stats.histogram("lat");
  EXPECT_EQ(&D, &Lat);
  EXPECT_EQ(D.count(), 3u);
  EXPECT_EQ(D.min(), 10u);
  EXPECT_EQ(D.max(), 30u);
  EXPECT_DOUBLE_EQ(D.mean(), 20.0);
  // 10 has four significant bits, 20 and 30 five.
  EXPECT_EQ(D.bucket(4), 1u);
  EXPECT_EQ(D.bucket(5), 2u);
  EXPECT_EQ(Stats.histogramNames(), std::vector<std::string>{"lat"});
}

TEST(Stats, EmptyDistribution) {
  StatRegistry Stats;
  const StatHistogram &D = Stats.histogram("nothing");
  EXPECT_EQ(D.count(), 0u);
  EXPECT_EQ(D.min(), 0u);
  EXPECT_DOUBLE_EQ(D.mean(), 0.0);
  EXPECT_EQ(D.approxPercentile(0.5), 0u);
  EXPECT_TRUE(Stats.histogramNames().empty());
}

TEST(Stats, RenderCounters) {
  StatRegistry Stats;
  Stats.increment("a", 1);
  Stats.increment("b", 2);
  EXPECT_EQ(Stats.renderCounters(), "a = 1\nb = 2\n");
}

//===----------------------------------------------------------------------===//
// StringUtil.
//===----------------------------------------------------------------------===//

TEST(StringUtil, Split) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtil, Formatters) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
  EXPECT_EQ(formatBytes(32 * 1024), "32KB");
  EXPECT_EQ(formatBytes(8ull << 20), "8MB");
  EXPECT_EQ(formatBytes(100), "100B");
  EXPECT_EQ(formatCount(1234567), "1,234,567");
  EXPECT_EQ(formatCount(12), "12");
}

//===----------------------------------------------------------------------===//
// TextTable.
//===----------------------------------------------------------------------===//

TEST(TextTable, AlignsColumns) {
  TextTable Table({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer", "22"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("name    value"), std::string::npos);
  EXPECT_NE(Out.find("longer  22"), std::string::npos);
}

TEST(TextTable, CsvOutput) {
  TextTable Table({"a", "b"});
  Table.addRow({"1", "2"});
  EXPECT_EQ(Table.renderCsv(), "a,b\n1,2\n");
}

TEST(TextTable, ShortRowsPadded) {
  TextTable Table({"a", "b", "c"});
  Table.addRow({"only"});
  EXPECT_EQ(Table.rowCount(), 1u);
  std::string Csv = Table.renderCsv();
  EXPECT_NE(Csv.find("only,,"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Logger.
//===----------------------------------------------------------------------===//

#include "common/Log.h"

TEST(Logger, WarningFormat) {
  ::testing::internal::CaptureStderr();
  logWarning("cannot write %s (%d)", "x.json", 42);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "hetsim warning: cannot write x.json (42)\n");
}

//===----------------------------------------------------------------------===//
// AsciiChart.
//===----------------------------------------------------------------------===//

#include "common/AsciiChart.h"

TEST(AsciiChart, BarsScaleToMax) {
  std::string Out = renderBarChart({{"big", 100.0}, {"half", 50.0}}, 10);
  // The largest bar uses the full width; the half bar uses half.
  EXPECT_NE(Out.find("big  |##########"), std::string::npos);
  EXPECT_NE(Out.find("half |#####"), std::string::npos);
  EXPECT_NE(Out.find("100.0"), std::string::npos);
}

TEST(AsciiChart, ZeroValuesDrawNothing) {
  std::string Out = renderBarChart({{"a", 0.0}, {"b", 0.0}}, 10);
  EXPECT_EQ(Out.find('#'), std::string::npos);
}

TEST(AsciiChart, UnitAppended) {
  std::string Out = renderBarChart({{"x", 3.0}}, 5, "us");
  EXPECT_NE(Out.find("3.0us"), std::string::npos);
}

TEST(AsciiChart, StackedBarsUseDistinctGlyphs) {
  std::vector<StackedBar> Bars = {{"run", {2.0, 2.0, 2.0}}};
  std::string Out =
      renderStackedBarChart(Bars, {"a", "b", "c"}, "#=.", 12);
  EXPECT_NE(Out.find("####===="), std::string::npos);
  EXPECT_NE(Out.find("...."), std::string::npos);
  EXPECT_NE(Out.find("legend: #=a ==b .=c"), std::string::npos);
  EXPECT_NE(Out.find("6.0"), std::string::npos);
}

TEST(AsciiChart, StackedBarsShareScale) {
  std::vector<StackedBar> Bars = {{"big", {10.0}}, {"small", {5.0}}};
  std::string Out = renderStackedBarChart(Bars, {"only"}, "#", 10);
  EXPECT_NE(Out.find("big   |##########"), std::string::npos);
  EXPECT_NE(Out.find("small |#####"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Random.
//===----------------------------------------------------------------------===//

TEST(Random, Deterministic) {
  XorShiftRng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  XorShiftRng A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Random, BoundsRespected) {
  XorShiftRng Rng(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(17), 17u);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, BoolProbabilityRoughlyCorrect) {
  XorShiftRng Rng(99);
  int True = 0;
  const int N = 10000;
  for (int I = 0; I != N; ++I)
    True += Rng.nextBool(0.25);
  EXPECT_NEAR(double(True) / N, 0.25, 0.03);
}

TEST(Random, ZeroSeedRemapped) {
  XorShiftRng Rng(0); // A zero state would be a fixed point; must not be.
  EXPECT_NE(Rng.next(), 0u);
}
