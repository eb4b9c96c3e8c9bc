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

} // namespace

void names::registerCanonicalMetrics(MetricsRegistry &Registry) {
  for (const char *Name :
       {SequiturSymbols, SequiturRulesCreated, PartitionCalls,
        PartitionBlockEvents, PartitionUniqueTraces, DbbChains, DbbLookups,
        TimestampSets, LzwCompressCalls, LzwCompressBytesIn, LzwDictEntries,
        ArchiveIndexReads, ArchiveBlockReads, ArchiveBlockBytesRead,
        ArchiveMmapOpens, ArchiveMmapBytes, ArchiveMmapFallbacks,
        DataflowQueries, IoWriteFailures, IoFaultsInjected,
        JournalCheckpoints, JournalCheckpointFailures, JournalRecordsDropped,
        StreamDegraded, TraceDroppedEvents, SelfprofSpans,
        SelfprofRecordsDropped, SelfprofTruncatedSpans, SelfprofUnclosedSpans,
        RacesRuns, RacesThreadsCompacted, RacesEdgesDerived, RacesEdgeRuns,
        RacesSegments, RacesSegmentPairs, RacesPairsCovered, RacesFound,
        RacesRacyPairs, IngestProducers, IngestFrames, IngestFrameBytes,
        IngestEvents, IngestFramesCorrupt, IngestResyncBytes,
        IngestFramesInvalid, IngestFramesDuplicate, IngestFramesReordered,
        IngestFramesReplayed, IngestSeqGaps, IngestEventsDropped,
        IngestEventsLost, IngestReadRetries, IngestIdleTimeouts,
        IngestDisconnects, IngestSynthesizedExits, IngestResumes,
        IngestCheckpoints, IngestCheckpointFailures})
    Registry.counter(Name);
  for (const char *Name :
       {PartitionBytesIn, PartitionBytesOut, DbbBytesIn, DbbBytesOut,
        TwppBytesOut, ArchiveBytes, MemRssBytes, MemPeakBytes,
        MemTrackedLiveBytes, MemTrackedPeakBytes, MemAllocs,
        SelfprofFunctions, IngestEventsPerSec})
    Registry.gauge(Name);
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
