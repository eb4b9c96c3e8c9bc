//===- obs/Names.h - Canonical metric names ---------------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical metric names every pipeline stage reports, in one place so
/// instrumentation sites, tests and docs/OBSERVABILITY.md cannot drift
/// apart. registerCanonicalMetrics() pre-registers all of them, which makes
/// exports carry every stage (zero-valued when unexercised) — the shape the
/// BENCH_*.json trajectory diffs rely on.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_NAMES_H
#define TWPP_OBS_NAMES_H

#include "obs/Metrics.h"

namespace twpp::obs::names {

// sequitur/ — grammar inference (the Larus baseline).
inline constexpr const char *SequiturSymbols = "sequitur.symbols";
inline constexpr const char *SequiturRulesCreated = "sequitur.rules_created";
inline constexpr const char *SequiturRulesDeleted = "sequitur.rules_deleted";
inline constexpr const char *SequiturSubstitutions = "sequitur.substitutions";

// wpp/Partition + wpp/Streaming — stages 1+2 (partitioning, redundant
// path trace elimination).
inline constexpr const char *PartitionCalls = "partition.calls";
inline constexpr const char *PartitionBlockEvents = "partition.block_events";
inline constexpr const char *PartitionUniqueTraces = "partition.unique_traces";
inline constexpr const char *PartitionBytesIn = "partition.bytes_in";
inline constexpr const char *PartitionBytesOut = "partition.bytes_out";
inline constexpr const char *PartitionTraceLength = "partition.trace_length";

// wpp/Dbb — stage 3 (DBB dictionary creation).
inline constexpr const char *DbbChains = "dbb.chains";
inline constexpr const char *DbbLookups = "dbb.lookups";
inline constexpr const char *DbbLookupHits = "dbb.lookup_hits";
inline constexpr const char *DbbBytesIn = "dbb.bytes_in";
inline constexpr const char *DbbBytesOut = "dbb.bytes_out";

// wpp/TimestampSet + wpp/Twpp — stages 4+5 (timestamped form, series
// compaction).
inline constexpr const char *TimestampSets = "timestamp.sets";
inline constexpr const char *TimestampValues = "timestamp.values";
inline constexpr const char *TimestampRuns = "timestamp.runs";
inline constexpr const char *TwppBytesIn = "twpp.bytes_in";
inline constexpr const char *TwppBytesOut = "twpp.bytes_out";

// support/LZW — DCG compression.
inline constexpr const char *LzwCompressCalls = "lzw.compress_calls";
inline constexpr const char *LzwCompressBytesIn = "lzw.compress_bytes_in";
inline constexpr const char *LzwCompressBytesOut = "lzw.compress_bytes_out";
inline constexpr const char *LzwDictEntries = "lzw.dict_entries";
inline constexpr const char *LzwDecompressCalls = "lzw.decompress_calls";
inline constexpr const char *LzwDecompressBytesIn = "lzw.decompress_bytes_in";
inline constexpr const char *LzwDecompressBytesOut =
    "lzw.decompress_bytes_out";

// support/FileIO — durable file IO (atomic writes, retry, fault seam).
inline constexpr const char *IoWrites = "io.writes";
inline constexpr const char *IoReads = "io.reads";
inline constexpr const char *IoAtomicWrites = "io.atomic_writes";
inline constexpr const char *IoWriteRetries = "io.write_retries";
inline constexpr const char *IoWriteFailures = "io.write_failures";
inline constexpr const char *IoShortReads = "io.short_reads";
inline constexpr const char *IoFaultsInjected = "io.faults_injected";

// wpp/Journal + wpp/Streaming durability — checkpointing, recovery and
// budget-driven degradation of the online compactor.
inline constexpr const char *JournalCheckpoints = "journal.checkpoints";
inline constexpr const char *JournalCheckpointFailures =
    "journal.checkpoint_failures";
inline constexpr const char *JournalBytes = "journal.bytes";
inline constexpr const char *JournalResumes = "journal.resumes";
inline constexpr const char *JournalRecordsDropped =
    "journal.records_dropped";
inline constexpr const char *StreamDegraded = "stream.degraded";
inline constexpr const char *StreamStateBytes = "stream.state_bytes";

// wpp/Archive — the on-disk format and its random-access reader.
inline constexpr const char *ArchiveEncodes = "archive.encodes";
inline constexpr const char *ArchiveBytes = "archive.bytes";
inline constexpr const char *ArchiveIndexReads = "archive.index_reads";
inline constexpr const char *ArchiveBlockReads = "archive.block_reads";
inline constexpr const char *ArchiveBlockBytesRead = "archive.block_bytes_read";
inline constexpr const char *ArchiveDcgReads = "archive.dcg_reads";
inline constexpr const char *ArchiveBlockBytes = "archive.block_bytes";
// Zero-copy read path: successful mappings, bytes mapped, and times the
// reader fell back from mmap to buffered IO.
inline constexpr const char *ArchiveMmapOpens = "archive.mmap_opens";
inline constexpr const char *ArchiveMmapBytes = "archive.mmap_bytes";
inline constexpr const char *ArchiveMmapFallbacks = "archive.mmap_fallbacks";
// Decode-scratch arena high-water (gauge, bytes reserved across blocks).
inline constexpr const char *ArenaDecodeReservedBytes =
    "arena.decode_reserved_bytes";

// obs/Trace — the event-tracing flight recorder. Ring overwrites are
// published live (satisfying "is the ring big enough?" without exporting
// a trace); the same figure appears per-thread in the Chrome export's
// otherData.dropped_events.
inline constexpr const char *TraceDroppedEvents = "trace.dropped_events";

// obs/SelfProfile — continuous self-profiling: the pipeline's own span
// stream compacted into a TWPP archive ("TWPP-on-TWPP").
inline constexpr const char *SelfprofSpans = "selfprof.spans";
inline constexpr const char *SelfprofEvents = "selfprof.events";
inline constexpr const char *SelfprofRecordsDropped =
    "selfprof.records_dropped";
inline constexpr const char *SelfprofTruncatedSpans =
    "selfprof.truncated_spans";
inline constexpr const char *SelfprofUnclosedSpans =
    "selfprof.unclosed_spans";
inline constexpr const char *SelfprofFunctions = "selfprof.functions";
inline constexpr const char *SelfprofArchiveBytes = "selfprof.archive_bytes";
inline constexpr const char *SelfprofTraceJsonBytes =
    "selfprof.trace_json_bytes";

// verify/ — static invariant verification (TWPP_VERIFY post-stage
// assertions and `twpp verify`).
inline constexpr const char *VerifyRuns = "verify.runs";
inline constexpr const char *VerifyDiagnostics = "verify.diagnostics";
inline constexpr const char *VerifyErrors = "verify.errors";
inline constexpr const char *VerifyWarnings = "verify.warnings";

// obs/Memory — allocation tracking and process RSS sampling. All gauges:
// RSS figures are set from the poller window at export time, tracked_*
// figures from the MemTracker tallies.
inline constexpr const char *MemRssBytes = "mem.rss_bytes";
inline constexpr const char *MemPeakBytes = "mem.peak_bytes";
inline constexpr const char *MemTrackedLiveBytes = "mem.tracked_live_bytes";
inline constexpr const char *MemTrackedPeakBytes = "mem.tracked_peak_bytes";
inline constexpr const char *MemAllocs = "mem.allocs";

// races/ — happens-before data-race detection over the compacted
// concurrent representation (src/races/, twpp races).
inline constexpr const char *RacesRuns = "races.runs";
inline constexpr const char *RacesThreadsCompacted =
    "races.threads_compacted";
inline constexpr const char *RacesEdgesDerived = "races.edges_derived";
inline constexpr const char *RacesEdgeRuns = "races.edge_runs";
inline constexpr const char *RacesSegments = "races.segments";
inline constexpr const char *RacesSegmentPairs = "races.segment_pairs";
inline constexpr const char *RacesPairsCovered = "races.pairs_covered";
inline constexpr const char *RacesFound = "races.found";
inline constexpr const char *RacesRacyPairs = "races.racy_pairs";

// ingest/ — the multi-producer ingestion frontend (twpp-wire-v1 framing,
// sequencing, degrade-never-abort; src/ingest/,
// twpp ingest). Wire-damage counters split by where the damage was
// caught: frames_corrupt failed the CRC (decoder), frames_invalid passed
// the CRC but would not decode (producer bug), seq_gaps are sequence
// numbers that never arrived in order.
inline constexpr const char *IngestProducers = "ingest.producers";
inline constexpr const char *IngestFrames = "ingest.frames";
inline constexpr const char *IngestFrameBytes = "ingest.frame_bytes";
inline constexpr const char *IngestEvents = "ingest.events";
inline constexpr const char *IngestFramesCorrupt = "ingest.frames_corrupt";
inline constexpr const char *IngestResyncBytes = "ingest.resync_bytes";
inline constexpr const char *IngestFramesInvalid = "ingest.frames_invalid";
inline constexpr const char *IngestFramesDuplicate =
    "ingest.frames_duplicate";
inline constexpr const char *IngestFramesReordered =
    "ingest.frames_reordered";
inline constexpr const char *IngestFramesReplayed =
    "ingest.frames_replayed";
inline constexpr const char *IngestSeqGaps = "ingest.seq_gaps";
inline constexpr const char *IngestEventsDropped = "ingest.events_dropped";
inline constexpr const char *IngestEventsLost = "ingest.events_lost";
inline constexpr const char *IngestReadRetries = "ingest.read_retries";
inline constexpr const char *IngestIdleTimeouts = "ingest.idle_timeouts";
inline constexpr const char *IngestDisconnects = "ingest.disconnects";
inline constexpr const char *IngestSynthesizedExits =
    "ingest.synthesized_exits";
inline constexpr const char *IngestResumes = "ingest.resumes";
inline constexpr const char *IngestCheckpoints = "ingest.checkpoints";
inline constexpr const char *IngestCheckpointFailures =
    "ingest.checkpoint_failures";
// Gauge: the last run's aggregate applied-events rate.
inline constexpr const char *IngestEventsPerSec = "ingest.events_per_sec";

// dataflow/ — demand-driven queries over the compacted form.
inline constexpr const char *DataflowQueries = "dataflow.queries";
inline constexpr const char *DataflowSubqueries = "dataflow.subqueries";
inline constexpr const char *DataflowNodesVisited = "dataflow.nodes_visited";
inline constexpr const char *DataflowCacheHits = "dataflow.cache_hits";
inline constexpr const char *DataflowCacheMisses = "dataflow.cache_misses";

/// Power-of-two bucket bounds shared by the size/length histograms.
/// Header-only so instrumented libraries need no link against twpp_obs.
inline std::vector<uint64_t> powerOfTwoBounds(uint64_t MaxBound) {
  std::vector<uint64_t> Bounds;
  for (uint64_t B = 1; B <= MaxBound; B *= 2)
    Bounds.push_back(B);
  return Bounds;
}

/// Registers every canonical counter, gauge and histogram in \p Registry so
/// exports enumerate all stages even when a run exercised only a few.
void registerCanonicalMetrics(MetricsRegistry &Registry);

} // namespace twpp::obs::names

#endif // TWPP_OBS_NAMES_H
