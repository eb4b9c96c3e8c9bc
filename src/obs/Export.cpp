//===- obs/Export.cpp - Metric exporters ----------------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include "obs/Json.h"
#include "obs/Names.h"
#include "support/FileIO.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"

#include <cinttypes>
#include <cstdio>

using namespace twpp;
using namespace twpp::obs;

namespace {

std::string u64(uint64_t Value) { return std::to_string(Value); }

std::string num(double Value) { return jsonNumber(Value); }

/// Metric names are dot/slash identifiers, but quotes/backslashes in a
/// label must still round-trip; the escaper is shared with the trace
/// exporter (obs/Json.h) so the two cannot drift apart.
std::string jsonString(const std::string &Raw) {
  return jsonStringLiteral(Raw);
}

std::string statsJson(const RunningStats &S) {
  return "{\"count\": " + u64(S.count()) + ", \"min\": " + num(S.min()) +
         ", \"max\": " + num(S.max()) + ", \"mean\": " + num(S.mean()) +
         ", \"stddev\": " + num(S.stddev()) + ", \"p50\": " + num(S.p50()) +
         ", \"p95\": " + num(S.p95()) + "}";
}

} // namespace

void names::registerCanonicalMetrics(MetricsRegistry &Registry) {
  for (const char *Name :
       {SequiturSymbols, SequiturRulesCreated, SequiturRulesDeleted,
        SequiturSubstitutions, PartitionCalls, PartitionBlockEvents,
        PartitionUniqueTraces, DbbChains, DbbLookups, DbbLookupHits,
        TimestampSets, TimestampValues, TimestampRuns, LzwCompressCalls,
        LzwCompressBytesIn, LzwCompressBytesOut, LzwDictEntries,
        LzwDecompressCalls, LzwDecompressBytesIn, LzwDecompressBytesOut,
        ArchiveEncodes, ArchiveIndexReads, ArchiveBlockReads,
        ArchiveBlockBytesRead, ArchiveDcgReads, ArchiveMmapOpens,
        ArchiveMmapBytes, ArchiveMmapFallbacks, VerifyRuns,
        VerifyDiagnostics, VerifyErrors, VerifyWarnings, DataflowQueries,
        DataflowSubqueries, DataflowNodesVisited, DataflowCacheHits,
        DataflowCacheMisses, IoWrites, IoReads, IoAtomicWrites,
        IoWriteRetries, IoWriteFailures, IoShortReads, IoFaultsInjected,
        JournalCheckpoints, JournalCheckpointFailures, JournalBytes,
        JournalResumes, JournalRecordsDropped, StreamDegraded,
        TraceDroppedEvents, SelfprofSpans, SelfprofEvents,
        SelfprofRecordsDropped, SelfprofTruncatedSpans,
        SelfprofUnclosedSpans, RacesRuns, RacesThreadsCompacted,
        RacesEdgesDerived, RacesEdgeRuns, RacesSegments, RacesSegmentPairs,
        RacesPairsCovered, RacesFound, RacesRacyPairs, IngestProducers,
        IngestFrames, IngestFrameBytes, IngestEvents, IngestFramesCorrupt,
        IngestResyncBytes, IngestFramesInvalid, IngestFramesDuplicate,
        IngestFramesReordered, IngestFramesReplayed, IngestSeqGaps,
        IngestEventsDropped, IngestEventsLost, IngestShedFrames,
        IngestShedBytes, IngestBackpressureWaits, IngestReadRetries,
        IngestIdleTimeouts, IngestDisconnects, IngestSynthesizedExits,
        IngestResumes, IngestCheckpoints, IngestCheckpointFailures})
    Registry.counter(Name);
  for (const char *Name :
       {PartitionBytesIn, PartitionBytesOut, DbbBytesIn, DbbBytesOut,
        TwppBytesIn, TwppBytesOut, ArchiveBytes, StreamStateBytes,
        ArenaDecodeReservedBytes, MemRssBytes, MemPeakBytes,
        MemTrackedLiveBytes, MemTrackedPeakBytes, MemAllocs,
        SelfprofFunctions, SelfprofArchiveBytes, SelfprofTraceJsonBytes,
        IngestQueueDepthPeak, IngestEventsPerSec})
    Registry.gauge(Name);
  Registry.histogram(PartitionTraceLength, powerOfTwoBounds(1u << 20));
  Registry.histogram(ArchiveBlockBytes, powerOfTwoBounds(1u << 24));
}

std::string obs::renderMetricsTable(const MetricsRegistry &Registry) {
  std::string Out;

  TablePrinter Counters("Counters");
  Counters.addRow({"name", "value"});
  for (const auto &[Name, Value] : Registry.counterSnapshot())
    Counters.addRow({Name, u64(Value)});
  Out += Counters.render();
  Out += "\n";

  TablePrinter Gauges("Gauges");
  Gauges.addRow({"name", "value"});
  for (const auto &[Name, Value] : Registry.gaugeSnapshot())
    Gauges.addRow({Name, std::to_string(Value)});
  Out += Gauges.render();
  Out += "\n";

  TablePrinter Histograms("Histograms");
  Histograms.addRow(
      {"name", "count", "min", "mean", "p50", "p95", "max", "stddev"});
  for (const auto &H : Registry.histogramSnapshot())
    Histograms.addRow({H.Name, u64(H.Samples.count()),
                       formatDouble(H.Samples.min(), 1),
                       formatDouble(H.Samples.mean(), 1),
                       formatDouble(H.Samples.p50(), 1),
                       formatDouble(H.Samples.p95(), 1),
                       formatDouble(H.Samples.max(), 1),
                       formatDouble(H.Samples.stddev(), 1)});
  Out += Histograms.render();
  Out += "\n";

  TablePrinter Spans("Phase spans");
  Spans.addRow({"path", "count", "total ms", "self ms", "mean us", "p95 us"});
  for (const auto &S : Registry.spanSnapshot())
    Spans.addRow({S.Path, u64(S.Stats.Count),
                  formatDouble(S.Stats.TotalUs / 1000.0, 3),
                  formatDouble(S.Stats.SelfUs / 1000.0, 3),
                  formatDouble(S.Stats.DurationsUs.mean(), 1),
                  formatDouble(S.Stats.DurationsUs.p95(), 1)});
  Out += Spans.render();
  return Out;
}

std::string obs::exportMetricsJson(const MetricsRegistry &Registry) {
  std::string Out = "{\n  \"schema\": \"twpp-metrics-v1\",\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Registry.counterSnapshot()) {
    Out += First ? "\n" : ",\n";
    Out += "    " + jsonString(Name) + ": " + u64(Value);
    First = false;
  }
  Out += "\n  },\n  \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Registry.gaugeSnapshot()) {
    Out += First ? "\n" : ",\n";
    Out += "    " + jsonString(Name) + ": " + std::to_string(Value);
    First = false;
  }
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  for (const auto &H : Registry.histogramSnapshot()) {
    Out += First ? "\n" : ",\n";
    Out += "    " + jsonString(H.Name) + ": {\"bounds\": [";
    for (size_t I = 0; I < H.Bounds.size(); ++I)
      Out += (I ? ", " : "") + u64(H.Bounds[I]);
    Out += "], \"counts\": [";
    for (size_t I = 0; I < H.Counts.size(); ++I)
      Out += (I ? ", " : "") + u64(H.Counts[I]);
    Out += "], \"stats\": " + statsJson(H.Samples) + "}";
    First = false;
  }
  Out += "\n  },\n  \"spans\": {";
  First = true;
  for (const auto &S : Registry.spanSnapshot()) {
    Out += First ? "\n" : ",\n";
    Out += "    " + jsonString(S.Path) + ": {\"count\": " +
           u64(S.Stats.Count) + ", \"total_us\": " + num(S.Stats.TotalUs) +
           ", \"self_us\": " + num(S.Stats.SelfUs) +
           ", \"mean_us\": " + num(S.Stats.DurationsUs.mean()) +
           ", \"p95_us\": " + num(S.Stats.DurationsUs.p95()) + "}";
    First = false;
  }
  Out += "\n  }\n}\n";
  return Out;
}

std::string obs::exportMetricsJsonLines(const MetricsRegistry &Registry,
                                        const std::string &Label) {
  std::string Out;
  std::string Prefix = "{\"label\": " + jsonString(Label) + ", ";
  for (const auto &[Name, Value] : Registry.counterSnapshot())
    Out += Prefix + "\"kind\": \"counter\", \"name\": " + jsonString(Name) +
           ", \"value\": " + u64(Value) + "}\n";
  for (const auto &[Name, Value] : Registry.gaugeSnapshot())
    Out += Prefix + "\"kind\": \"gauge\", \"name\": " + jsonString(Name) +
           ", \"value\": " + std::to_string(Value) + "}\n";
  for (const auto &H : Registry.histogramSnapshot())
    Out += Prefix + "\"kind\": \"histogram\", \"name\": " +
           jsonString(H.Name) + ", \"stats\": " + statsJson(H.Samples) +
           "}\n";
  for (const auto &S : Registry.spanSnapshot())
    Out += Prefix + "\"kind\": \"span\", \"name\": " + jsonString(S.Path) +
           ", \"count\": " + u64(S.Stats.Count) +
           ", \"total_us\": " + num(S.Stats.TotalUs) +
           ", \"self_us\": " + num(S.Stats.SelfUs) + "}\n";
  return Out;
}

bool obs::writeMetricsJsonFile(const std::string &Path,
                               const MetricsRegistry &Registry) {
  std::string Json = exportMetricsJson(Registry);
  return writeFileBytes(Path, std::vector<uint8_t>(Json.begin(), Json.end()))
      .ok();
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

/// "partition.block_events" -> "twpp_partition_block_events". Prometheus
/// metric names admit [a-zA-Z0-9_:] only; everything else flattens to
/// '_' and the twpp_ prefix namespaces the scrape.
std::string promName(const std::string &Raw) {
  std::string Out = "twpp_";
  for (char C : Raw) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  return Out;
}

/// Label-value escaping per the exposition format: backslash, double
/// quote and line feed must be escaped; everything else passes through.
std::string promLabelValue(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string promDouble(double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

} // namespace

std::string obs::exportMetricsProm(const MetricsRegistry &Registry) {
  std::string Out;
  for (const auto &[Name, Value] : Registry.counterSnapshot()) {
    std::string P = promName(Name);
    Out += "# HELP " + P + " TWPP counter " + Name + "\n";
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + u64(Value) + "\n";
  }
  for (const auto &[Name, Value] : Registry.gaugeSnapshot()) {
    std::string P = promName(Name);
    Out += "# HELP " + P + " TWPP gauge " + Name + "\n";
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " " + std::to_string(Value) + "\n";
  }
  for (const auto &H : Registry.histogramSnapshot()) {
    // The native histogram convention: cumulative le-labelled buckets
    // plus _sum and _count series.
    std::string P = promName(H.Name);
    Out += "# HELP " + P + " TWPP histogram " + H.Name + "\n";
    Out += "# TYPE " + P + " histogram\n";
    uint64_t Cumulative = 0;
    for (size_t I = 0; I < H.Bounds.size(); ++I) {
      Cumulative += I < H.Counts.size() ? H.Counts[I] : 0;
      Out += P + "_bucket{le=\"" + u64(H.Bounds[I]) + "\"} " +
             u64(Cumulative) + "\n";
    }
    Out += P + "_bucket{le=\"+Inf\"} " + u64(H.Samples.count()) + "\n";
    Out += P + "_sum " +
           promDouble(H.Samples.mean() *
                      static_cast<double>(H.Samples.count())) +
           "\n";
    Out += P + "_count " + u64(H.Samples.count()) + "\n";
  }
  // Phase spans keyed by hierarchical path — the label-carrying series
  // (and the reason label escaping exists: paths are free-form text).
  bool SpanHeader = false;
  for (const auto &S : Registry.spanSnapshot()) {
    if (!SpanHeader) {
      Out += "# HELP twpp_span_count Completed phase spans per path\n";
      Out += "# TYPE twpp_span_count counter\n";
      SpanHeader = true;
    }
    Out += "twpp_span_count{path=\"" + promLabelValue(S.Path) + "\"} " +
           u64(S.Stats.Count) + "\n";
  }
  SpanHeader = false;
  for (const auto &S : Registry.spanSnapshot()) {
    if (!SpanHeader) {
      Out += "# HELP twpp_span_total_us Wall time per span path, "
             "children included\n";
      Out += "# TYPE twpp_span_total_us counter\n";
      SpanHeader = true;
    }
    Out += "twpp_span_total_us{path=\"" + promLabelValue(S.Path) + "\"} " +
           promDouble(S.Stats.TotalUs) + "\n";
  }
  SpanHeader = false;
  for (const auto &S : Registry.spanSnapshot()) {
    if (!SpanHeader) {
      Out += "# HELP twpp_span_self_us Wall time per span path, "
             "children excluded\n";
      Out += "# TYPE twpp_span_self_us counter\n";
      SpanHeader = true;
    }
    Out += "twpp_span_self_us{path=\"" + promLabelValue(S.Path) + "\"} " +
           promDouble(S.Stats.SelfUs) + "\n";
  }
  return Out;
}
