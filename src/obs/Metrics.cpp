//===- obs/Metrics.cpp ----------------------------------------------------===//

#include "obs/Metrics.h"

#include "common/Stats.h"
#include "memory/MemorySystem.h"
#include "obs/Json.h"

#include <cstdio>

using namespace hetsim;

/// Only a HybridLru cache can bypass a fill, so only it has the count.
static void addCache(MetricsSnapshot &Out, const std::string &Prefix,
                     const Cache &C) {
  const CacheStats &S = C.stats();
  Out.add(Prefix + ".accesses", double(S.Accesses));
  Out.add(Prefix + ".hits", double(S.Hits));
  Out.add(Prefix + ".misses", double(S.Misses));
  Out.add(Prefix + ".evictions", double(S.Evictions));
  Out.add(Prefix + ".writebacks", double(S.Writebacks));
  if (C.config().Replacement == ReplacementKind::HybridLru)
    Out.add(Prefix + ".bypassed_fills", double(S.BypassedFills));
}

/// \p HasQueue adds the background-queue keys: only the CPU device has a
/// queue, so a discrete GPU device's would always read zero.
static void addDram(MetricsSnapshot &Out, const std::string &Prefix,
                    const DramSystem &Dram, bool HasQueue) {
  const DramStats &S = Dram.stats();
  Out.add(Prefix + ".reads", double(S.Reads));
  Out.add(Prefix + ".writes", double(S.Writes));
  Out.add(Prefix + ".row_hits", double(S.RowHits));
  Out.add(Prefix + ".row_misses", double(S.RowMisses));
  Out.add(Prefix + ".bytes", double(S.BytesTransferred));
  if (HasQueue) {
    Out.add(Prefix + ".batch_drains", double(S.BatchDrains));
    Out.add(Prefix + ".batched_reqs", double(S.BatchedRequests));
    Out.add(Prefix + ".peak_queue_depth", double(S.PeakQueueDepth));
  }
}

static void addTlb(MetricsSnapshot &Out, const std::string &Prefix,
                   const TlbStats &S) {
  Out.add(Prefix + ".lookups", double(S.Lookups));
  Out.add(Prefix + ".hits", double(S.Hits));
  Out.add(Prefix + ".misses", double(S.Misses));
}

void hetsim::captureMetrics(MemorySystem &Mem, MetricsSnapshot &Out) {
  addCache(Out, "cache.cpu_l1", Mem.cpuL1());
  addCache(Out, "cache.cpu_l2", Mem.cpuL2());
  addCache(Out, "cache.gpu_l1", Mem.gpuL1());
  addCache(Out, "cache.l3", Mem.l3());

  addDram(Out, "dram.cpu", Mem.cpuDram(), /*HasQueue=*/true);
  if (Mem.config().SeparateGpuDram)
    addDram(Out, "dram.gpu", Mem.gpuDram(), /*HasQueue=*/false);

  const NocStats &Noc = Mem.noc().stats();
  Out.add("noc.messages", double(Noc.Messages));
  Out.add("noc.hops", double(Noc.TotalHops));
  Out.add("noc.contention_cycles", double(Noc.ContentionCycles));
  Out.add("noc.contended_messages", double(Noc.ContendedMessages));

  Out.add("smem.reads", double(Mem.scratchpad().readCount()));
  Out.add("smem.writes", double(Mem.scratchpad().writeCount()));

  addTlb(Out, "tlb.cpu", Mem.tlb(PuKind::Cpu).stats());
  addTlb(Out, "tlb.gpu", Mem.tlb(PuKind::Gpu).stats());

  const PrefetcherStats &Pf = Mem.prefetcher().stats();
  Out.add("prefetcher.lookups", double(Pf.Lookups));
  Out.add("prefetcher.streams", double(Pf.StreamAllocations));
  Out.add("prefetcher.issued", double(Pf.PrefetchesIssued));

  const StatRegistry &Stats = Mem.stats();
  for (const std::string &Name : Stats.counterNames())
    Out.add(Name, double(Stats.counter(Name)));
  for (const std::string &Name : Stats.histogramNames()) {
    const StatHistogram &H = Stats.histogram(Name);
    Out.add(Name + ".count", double(H.count()));
    Out.add(Name + ".sum", double(H.sum()));
    Out.add(Name + ".mean", H.mean());
    Out.add(Name + ".max", double(H.max()));
    Out.add(Name + ".p50", double(H.approxPercentile(0.50)));
    Out.add(Name + ".p99", double(H.approxPercentile(0.99)));
  }
}

std::string ConservationReport::summary() const {
  if (Violations.empty())
    return "ok";
  std::string Out;
  for (const std::string &V : Violations) {
    if (!Out.empty())
      Out += "; ";
    Out += V;
  }
  return Out;
}

static void checkDevice(ConservationReport &Report, const char *Label,
                        const DramSystem &Dram, uint64_t Charged) {
  char Buffer[160];
  if (Dram.queuedRequests() != 0) {
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s: %zu requests still queued at quiescence", Label,
                  Dram.queuedRequests());
    Report.Ok = false;
    Report.Violations.push_back(Buffer);
  }
  uint64_t Served = Dram.stats().Reads + Dram.stats().Writes;
  if (Served != Charged) {
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s: served %llu requests but charged %llu", Label,
                  static_cast<unsigned long long>(Served),
                  static_cast<unsigned long long>(Charged));
    Report.Ok = false;
    Report.Violations.push_back(Buffer);
  }
}

ConservationReport hetsim::checkConservation(MemorySystem &Mem) {
  ConservationReport Report;
  const StatRegistry &Stats = Mem.stats();

  uint64_t CpuCharged = Stats.counter("dram.cpu.demand") +
                        Stats.counter("dram.cpu.writebacks") +
                        Stats.counter("dram.cpu.prefetch_reads") +
                        Stats.counter("dram.cpu.transfer_reqs");
  checkDevice(Report, "dram.cpu", Mem.cpuDram(), CpuCharged);

  if (Mem.config().SeparateGpuDram)
    checkDevice(Report, "dram.gpu", Mem.gpuDram(),
                Stats.counter("dram.gpu.demand"));
  return Report;
}

void hetsim::appendMetricsObject(JsonWriter &W, const std::string &Key,
                                 const MetricsSnapshot &M) {
  W.beginObject(Key);
  for (const auto &KV : M.values())
    W.value(KV.first, KV.second);
  W.endObject();
}

std::string hetsim::renderMetricsJson(const MetricsSnapshot &M) {
  JsonWriter W;
  W.beginObject();
  W.value("schema", "hetsim-metrics-v1");
  appendMetricsObject(W, "metrics", M);
  W.endObject();
  return W.take();
}

bool hetsim::writeMetricsJson(const std::string &Path,
                              const MetricsSnapshot &M) {
  return writeTextFile(Path, renderMetricsJson(M) + "\n");
}

static bool allNumericMembers(const JsonValue &Object, std::string &Error) {
  for (const auto &KV : Object.Members) {
    if (KV.second.isNumber() || KV.second.Type == JsonValue::Kind::Null)
      continue;
    Error = "metric '" + KV.first + "' is not a number";
    return false;
  }
  return true;
}

bool hetsim::validateMetricsJson(const std::string &Text, std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Text, Doc, Error))
    return false;
  if (!Doc.isObject()) {
    Error = "document is not an object";
    return false;
  }
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString()) {
    Error = "missing 'schema' string";
    return false;
  }

  if (Schema->StringValue == "hetsim-metrics-v1") {
    const JsonValue *Metrics = Doc.find("metrics");
    if (!Metrics || !Metrics->isObject()) {
      Error = "missing 'metrics' object";
      return false;
    }
    return allNumericMembers(*Metrics, Error);
  }

  if (Schema->StringValue == "hetsim-sweep-metrics-v1") {
    const JsonValue *Points = Doc.find("points");
    if (!Points || !Points->isArray()) {
      Error = "missing 'points' array";
      return false;
    }
    for (const JsonValue &Point : Points->Elements) {
      if (!Point.isObject()) {
        Error = "sweep point is not an object";
        return false;
      }
      const JsonValue *Metrics = Point.find("metrics");
      if (!Metrics || !Metrics->isObject()) {
        Error = "sweep point missing 'metrics' object";
        return false;
      }
      if (!allNumericMembers(*Metrics, Error))
        return false;
    }
    return true;
  }

  Error = "unknown schema '" + Schema->StringValue + "'";
  return false;
}
