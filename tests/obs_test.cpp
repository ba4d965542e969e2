//===- tests/obs_test.cpp - Observability layer tests ---------------------===//
//
// Covers the obs/ library (JSON writer/reader, phase taxonomy, trace
// events, metrics + conservation) and its integration through the
// simulator: phase sums must reconcile with the coarse TimeBreakdown,
// and every point of the shipped design space must conserve DRAM
// traffic under the category-charging contract of obs/Metrics.h.
//
//===----------------------------------------------------------------------===//

#include "analysis/SweepLinter.h"
#include "core/HeteroSimulator.h"
#include "core/SweepRunner.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Phase.h"
#include "obs/TraceEvents.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

using namespace hetsim;

//===----------------------------------------------------------------------===//
// JSON writer.
//===----------------------------------------------------------------------===//

TEST(JsonWriter, ObjectsArraysAndValues) {
  JsonWriter W;
  W.beginObject();
  W.value("name", "hetsim");
  W.value("count", uint64_t(42));
  W.value("ratio", 0.5);
  W.value("on", true);
  W.beginArray("list");
  W.value("a");
  W.value("b");
  W.endArray();
  W.beginObject("nested");
  W.value("k", "v");
  W.endObject();
  W.endObject();
  EXPECT_EQ(W.take(), "{\"name\":\"hetsim\",\"count\":42,\"ratio\":0.5,"
                      "\"on\":true,\"list\":[\"a\",\"b\"],"
                      "\"nested\":{\"k\":\"v\"}}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter W;
  W.beginObject();
  W.value("k", "a\"b\\c\n\t");
  W.endObject();
  std::string Doc = W.take();
  EXPECT_EQ(Doc, "{\"k\":\"a\\\"b\\\\c\\n\\t\"}");
  JsonValue Parsed;
  std::string Error;
  ASSERT_TRUE(parseJson(Doc, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.find("k")->StringValue, "a\"b\\c\n\t");
}

TEST(JsonWriter, IntegralDoublesPrintExactly) {
  JsonWriter W;
  W.beginObject();
  W.value("a", 3.0);
  W.value("b", 1048576.0);
  W.endObject();
  EXPECT_EQ(W.take(), "{\"a\":3,\"b\":1048576}");
}

//===----------------------------------------------------------------------===//
// JSON reader.
//===----------------------------------------------------------------------===//

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonWriter W;
  W.beginObject();
  W.value("s", "text \\ \"quoted\"");
  W.value("n", 2.25);
  W.value("u", uint64_t(7));
  W.beginArray("a");
  W.value("x");
  W.endArray();
  W.endObject();

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(W.take(), Doc, Error)) << Error;
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.find("s")->StringValue, "text \\ \"quoted\"");
  EXPECT_EQ(Doc.find("n")->NumberValue, 2.25);
  EXPECT_EQ(Doc.find("u")->NumberValue, 7.0);
  ASSERT_TRUE(Doc.find("a")->isArray());
  EXPECT_EQ(Doc.find("a")->Elements[0].StringValue, "x");
}

TEST(JsonReader, RejectsMalformedInput) {
  JsonValue Doc;
  std::string Error;
  EXPECT_FALSE(parseJson("{\"k\":}", Doc, Error));
  EXPECT_FALSE(parseJson("{\"k\":1} trailing", Doc, Error));
  EXPECT_FALSE(parseJson("[1,]", Doc, Error));
  EXPECT_FALSE(parseJson("", Doc, Error));
  EXPECT_FALSE(parseJson("{'single':1}", Doc, Error));
}

TEST(JsonReader, ParsesEscapesAndLiterals) {
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(
      parseJson("{\"u\":\"\\u0041\",\"t\":true,\"z\":null}", Doc, Error))
      << Error;
  EXPECT_EQ(Doc.find("u")->StringValue, "A");
  EXPECT_TRUE(Doc.find("t")->BoolValue);
  EXPECT_EQ(Doc.find("z")->Type, JsonValue::Kind::Null);
  EXPECT_EQ(Doc.find("missing"), nullptr);
}

//===----------------------------------------------------------------------===//
// Phase taxonomy.
//===----------------------------------------------------------------------===//

TEST(Phase, NamesAreUniqueAndStable) {
  std::set<std::string> Names;
  for (unsigned P = 0; P != NumRunPhases; ++P)
    Names.insert(runPhaseName(RunPhase(P)));
  EXPECT_EQ(Names.size(), NumRunPhases);
  EXPECT_STREQ(runPhaseName(RunPhase::SerialCompute), "serial_compute");
  EXPECT_STREQ(runPhaseName(RunPhase::CopyOverlapStall),
               "copy_overlap_stall");
}

TEST(Phase, BreakdownSplitsComputeFromCommunication) {
  PhaseBreakdown B;
  B.add(RunPhase::SerialCompute, 10.0);
  B.add(RunPhase::ParallelCompute, 30.0);
  B.add(RunPhase::Transfer, 5.0);
  B.add(RunPhase::PageFault, 2.0);
  EXPECT_DOUBLE_EQ(B.computeNs(), 40.0);
  EXPECT_DOUBLE_EQ(B.communicationNs(), 7.0);
  EXPECT_DOUBLE_EQ(B.totalNs(), 47.0);
  EXPECT_DOUBLE_EQ(B.ns(RunPhase::Transfer), 5.0);
}

//===----------------------------------------------------------------------===//
// Trace events.
//===----------------------------------------------------------------------===//

TEST(TraceEvents, RendersValidChromeJson) {
  TraceEventLog Log;
  Log.complete(TraceTrack::Cpu, "serial_compute", 0.0, 12.5);
  Log.complete(TraceTrack::Fabric, "transfer", 12.5, 3.0, "bytes", 4096);

  std::string Doc = Log.renderChromeJson("test/run");
  JsonValue Root;
  std::string Error;
  ASSERT_TRUE(parseJson(Doc, Root, Error)) << Error;
  const JsonValue *Events = Root.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  unsigned Metadata = 0, Complete = 0;
  for (const JsonValue &E : Events->Elements) {
    const std::string &Ph = E.find("ph")->StringValue;
    if (Ph == "M") {
      ++Metadata;
      continue;
    }
    ASSERT_EQ(Ph, "X");
    ++Complete;
    EXPECT_NE(E.find("ts"), nullptr);
    EXPECT_NE(E.find("dur"), nullptr);
    EXPECT_NE(E.find("tid"), nullptr);
  }
  // process_name + one thread_name per track, then the two events.
  EXPECT_EQ(Metadata, 1u + NumTraceTracks);
  EXPECT_EQ(Complete, 2u);
}

TEST(TraceEvents, ArgumentsSurviveRendering) {
  TraceEventLog Log;
  Log.complete(TraceTrack::Dram, "bg_drain_total", 1.0, 2.0, "requests", 17);
  JsonValue Root;
  std::string Error;
  ASSERT_TRUE(parseJson(Log.renderChromeJson("p"), Root, Error)) << Error;
  for (const JsonValue &E : Root.find("traceEvents")->Elements) {
    if (E.find("ph")->StringValue != "X")
      continue;
    const JsonValue *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_EQ(Args->find("requests")->NumberValue, 17.0);
  }
}

TEST(TraceEvents, PathSanitizesRunNames) {
  std::set<std::string> Names;
  for (unsigned T = 0; T != NumTraceTracks; ++T)
    Names.insert(traceTrackName(TraceTrack(T)));
  EXPECT_EQ(Names.size(), NumTraceTracks);

#ifdef _WIN32
  GTEST_SKIP() << "setenv not available";
#else
  setenv("HETSIM_TRACE_EVENTS", "/tmp/traces", 1);
  EXPECT_TRUE(traceEventsEnabled());
  EXPECT_EQ(traceEventPath("CPU+GPU/merge sort"),
            "/tmp/traces/CPU_GPU_merge_sort.trace.json");
  unsetenv("HETSIM_TRACE_EVENTS");
  EXPECT_FALSE(traceEventsEnabled());
  EXPECT_EQ(traceEventPath("x"), "");
#endif
}

//===----------------------------------------------------------------------===//
// Metrics documents.
//===----------------------------------------------------------------------===//

TEST(Metrics, SingleRunDocumentValidates) {
  MetricsSnapshot M;
  M.add("dram.cpu.reads", 10);
  M.add("run.total_ns", 123.5);
  std::string Doc = renderMetricsJson(M);
  std::string Error;
  EXPECT_TRUE(validateMetricsJson(Doc, Error)) << Error;

  JsonValue Root;
  ASSERT_TRUE(parseJson(Doc, Root, Error));
  EXPECT_EQ(Root.find("schema")->StringValue, "hetsim-metrics-v1");
  EXPECT_EQ(Root.find("metrics")->find("dram.cpu.reads")->NumberValue, 10.0);
}

TEST(Metrics, ValidatorRejectsBadDocuments) {
  std::string Error;
  EXPECT_FALSE(validateMetricsJson("not json", Error));
  EXPECT_FALSE(validateMetricsJson("{\"schema\":\"wrong\"}", Error));
  EXPECT_FALSE(validateMetricsJson(
      "{\"schema\":\"hetsim-metrics-v1\",\"metrics\":{\"k\":\"str\"}}",
      Error));
  EXPECT_FALSE(validateMetricsJson(
      "{\"schema\":\"hetsim-sweep-metrics-v1\",\"points\":[{}]}", Error));
}

TEST(Metrics, SweepDocumentValidates) {
  std::vector<SweepPoint> Points;
  Points.emplace_back(SystemConfig::forCaseStudy(CaseStudy::Fusion),
                      KernelId::Reduction);
  MetricsSnapshot M;
  M.add("run.total_ns", 1.0);
  std::string Doc = renderSweepMetricsJson(Points, {M});
  std::string Error;
  EXPECT_TRUE(validateMetricsJson(Doc, Error)) << Error;

  JsonValue Root;
  ASSERT_TRUE(parseJson(Doc, Root, Error));
  const JsonValue &Point = Root.find("points")->Elements[0];
  EXPECT_EQ(Point.find("kernel")->StringValue, "reduction");
  EXPECT_EQ(Point.find("metrics")->find("run.total_ns")->NumberValue, 1.0);
}

TEST(Metrics, FileRoundTrip) {
  MetricsSnapshot M;
  M.add("a", 1);
  std::string Path = testing::TempDir() + "obs_metrics_roundtrip.json";
  ASSERT_TRUE(writeMetricsJson(Path, M));
  std::string Text, Error;
  ASSERT_TRUE(readTextFile(Path, Text));
  EXPECT_TRUE(validateMetricsJson(Text, Error)) << Error;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Simulator integration: phases, metrics, conservation.
//===----------------------------------------------------------------------===//

TEST(Observability, PhasesReconcileWithTimeBreakdown) {
  for (CaseStudy Study : allCaseStudies()) {
    HeteroSimulator Simulator(SystemConfig::forCaseStudy(Study));
    RunResult Result = Simulator.run(KernelId::KMeans);
    const PhaseBreakdown &P = Result.Phases;
    EXPECT_NEAR(P.computeNs(),
                Result.Time.SequentialNs + Result.Time.ParallelNs,
                1e-6 * (1.0 + P.computeNs()))
        << caseStudyName(Study);
    EXPECT_NEAR(P.communicationNs(), Result.Time.CommunicationNs,
                1e-6 * (1.0 + P.communicationNs()))
        << caseStudyName(Study);
  }
}

TEST(Observability, EveryRunRecordsTraceEvents) {
  HeteroSimulator Simulator(
      SystemConfig::forCaseStudy(CaseStudy::Fusion));
  Simulator.run(KernelId::Reduction);
  EXPECT_FALSE(Simulator.trace().empty());
}

TEST(Observability, PrefetchDrainsKeepTheComputeSpans) {
  // Matrix multiply under configs/prefetch.cfg drains the background
  // queue 115,023 times on Fusion. The drains are one summary span, so
  // the timeline still holds every compute span.
  ConfigStore Overrides;
  ASSERT_TRUE(Overrides.loadFile(std::string(HETSIM_SOURCE_DIR) +
                                 "/configs/prefetch.cfg"));
  HeteroSimulator Simulator(
      SystemConfig::forCaseStudy(CaseStudy::Fusion, Overrides));
  RunResult Result = Simulator.run(KernelId::MatrixMul);
  MetricsSnapshot M = Simulator.collectMetrics(Result);
  ASSERT_GT(M.get("dram.cpu.bg_drains"), 0.0);

  JsonValue Root;
  std::string Error;
  ASSERT_TRUE(parseJson(Simulator.trace().renderChromeJson("p"), Root, Error))
      << Error;
  unsigned CpuCompute = 0, GpuCompute = 0, DrainSpans = 0;
  for (const JsonValue &E : Root.find("traceEvents")->Elements) {
    if (E.find("ph")->StringValue != "X")
      continue;
    const std::string &Name = E.find("name")->StringValue;
    if (Name == "parallel_compute")
      ++(E.find("cat")->StringValue == "cpu" ? CpuCompute : GpuCompute);
    if (Name == "bg_drain_total") {
      ++DrainSpans;
      EXPECT_EQ(E.find("args")->find("requests")->NumberValue,
                M.get("dram.cpu.bg_reqs"));
    }
  }
  // Both PUs compute in every parallel round.
  EXPECT_GE(CpuCompute, 1u);
  EXPECT_EQ(GpuCompute, CpuCompute);
  EXPECT_EQ(DrainSpans, 1u);
  EXPECT_EQ(M.get("run.trace_events"), double(Simulator.trace().size()));
}

TEST(Observability, CollectMetricsCarriesRunAndMemoryState) {
  HeteroSimulator Simulator(SystemConfig::forCaseStudy(CaseStudy::Gmac));
  RunResult Result = Simulator.run(KernelId::Reduction);
  MetricsSnapshot M = Simulator.collectMetrics(Result);
  EXPECT_TRUE(M.has("run.total_ns"));
  EXPECT_TRUE(M.has("cache.cpu_l1.accesses"));
  EXPECT_TRUE(M.has("dram.cpu.reads"));
  EXPECT_TRUE(M.has("run.phase.serial_compute_ns"));
  // Scratchpad traffic, which the energy model reads from the snapshot.
  EXPECT_TRUE(M.has("smem.reads"));
  EXPECT_TRUE(M.has("smem.writes"));
  EXPECT_NEAR(M.get("run.total_ns"), Result.Time.totalNs(), 1e-9);
  // Conservation includes quiescence: no stranded background traffic.
  EXPECT_EQ(M.get("run.conservation_ok"), 1.0);
  // Keys that could only read zero are not emitted: the queue depth at
  // quiescence, the push time (run.phase.push_ns has it), and the bypass
  // count of caches that cannot bypass.
  EXPECT_FALSE(M.has("dram.cpu.queued"));
  EXPECT_FALSE(M.has("run.push_ns"));
  EXPECT_TRUE(M.has("run.phase.push_ns"));
  for (const char *Cache : {"cpu_l1", "cpu_l2", "gpu_l1", "l3"})
    EXPECT_FALSE(M.has(std::string("cache.") + Cache + ".bypassed_fills"))
        << Cache;
}

TEST(Observability, OnlyAHybridCacheReportsBypassedFills) {
  // HybridLru is the one replacement policy that can refuse a fill
  // (Section II-B5), so only a cache built with it carries the count.
  MemHierConfig Hier;
  Hier.L3.Replacement = ReplacementKind::HybridLru;
  MemorySystem Mem(Hier);
  MetricsSnapshot M;
  captureMetrics(Mem, M);
  EXPECT_TRUE(M.has("cache.l3.bypassed_fills"));
  EXPECT_FALSE(M.has("cache.cpu_l2.bypassed_fills"));
}

TEST(Observability, DiscreteGpuDramHasNoQueueKeys) {
  // Only the CPU device has a background queue: a discrete GPU memory
  // reports its traffic but no always-zero queue keys.
  SystemConfig Config = SystemConfig::forCaseStudy(CaseStudy::CpuGpu);
  ASSERT_TRUE(Config.Hier.SeparateGpuDram);
  HeteroSimulator Simulator(Config);
  RunResult Result = Simulator.run(KernelId::Reduction);
  MetricsSnapshot M = Simulator.collectMetrics(Result);
  EXPECT_TRUE(M.has("dram.gpu.reads"));
  EXPECT_GT(M.get("dram.gpu.reads"), 0.0);
  EXPECT_FALSE(M.has("dram.gpu.batch_drains"));
  EXPECT_FALSE(M.has("dram.gpu.batched_reqs"));
  EXPECT_FALSE(M.has("dram.gpu.peak_queue_depth"));
  EXPECT_FALSE(M.has("dram.gpu.queued"));
  EXPECT_TRUE(M.has("dram.cpu.batch_drains"));
  EXPECT_TRUE(M.has("dram.cpu.batched_reqs"));
  EXPECT_TRUE(M.has("dram.cpu.peak_queue_depth"));
}

TEST(Observability, ConservationHoldsAcrossShippedDesignSpace) {
  // The 54-point shipped space (5 case studies + 4 address-space studies,
  // all six kernels): every point must satisfy the DRAM conservation
  // contract and leave its background queue empty.
  std::vector<SweepPoint> Points = shippedDesignSpace();
  ASSERT_EQ(Points.size(), 54u);

  SweepRunner Runner;
  Runner.run(Points);
  const std::vector<MetricsSnapshot> &Metrics = Runner.metrics();
  ASSERT_EQ(Metrics.size(), Points.size());
  for (size_t I = 0; I != Metrics.size(); ++I) {
    EXPECT_EQ(Metrics[I].get("run.conservation_ok"), 1.0)
        << Points[I].Config.Name << " / " << kernelName(Points[I].Kernel);
  }

  std::string Doc = renderSweepMetricsJson(Points, Metrics);
  std::string Error;
  EXPECT_TRUE(validateMetricsJson(Doc, Error)) << Error;
}

TEST(Observability, ConservationCheckFlagsUnchargedTraffic) {
  // Traffic reaching a device without a category charge must trip the
  // audit: touch DRAM behind the accounting's back.
  MemorySystem Mem((MemHierConfig()));
  Mem.cpuDram().access(0x1000, 0, false);
  ConservationReport Report = checkConservation(Mem);
  EXPECT_FALSE(Report.Ok);
  EXPECT_FALSE(Report.Violations.empty());
  EXPECT_NE(Report.summary(), "ok");
}
