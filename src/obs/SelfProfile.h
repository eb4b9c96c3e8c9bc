//===- obs/SelfProfile.h - Continuous self-profiling ------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TWPP-on-TWPP: compact the pipeline's own execution into a TWPP
/// archive. The flight recorder (obs/Trace.h) already captures every
/// PhaseSpan as B/E records in per-thread rings; this adapter consumes
/// those rings directly — never through the Chrome-JSON export — and
/// lowers the span stream into the ordinary trace::Events model:
///
///   * each distinct span path ("compact/dbb") becomes one
///     FunctionId, numbered densely in first-seen order;
///   * each span instance becomes an Enter..Exit pair;
///   * wall time becomes Block events: block 1 is a call marker emitted
///     at every span begin, and the idle gaps between a span's children
///     (its exclusive time) become one block per gap whose id names a
///     log2 duration bucket (2 mantissa bits, <=~19% quantization).
///
/// The lowered stream feeds a dedicated StreamingCompactor and is written
/// as a standard, verifier-clean .twppa archive, plus a small plain-text
/// sidecar (<archive>.meta) mapping FunctionIds back to span paths and
/// gap blocks back to representative nanoseconds — everything
/// `twpp selfprof` needs to report hottest paths per pipeline stage
/// and inclusive/exclusive time, purely from the archive.
///
/// Every thread's root spans become roots of the profile, merged into one
/// well-nested order by begin time. Ring wraparound and torn reads
/// degrade into counters (selfprof.*), never into a malformed event
/// stream.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_OBS_SELFPROFILE_H
#define TWPP_OBS_SELFPROFILE_H

#include "obs/Trace.h"
#include "trace/Events.h"

#include <cstdint>
#include <string>
#include <vector>

namespace twpp::obs {

/// Lowering constants shared by the adapter, the sidecar and the
/// twpp selfprof reporter.
namespace selfprof {

/// Block id emitted at every span begin. Guarantees every call's path
/// trace is non-empty even when the span ran shorter than MinGapNs.
inline constexpr BlockId CallMarkerBlock = 1;

/// First block id available for gap-duration buckets.
inline constexpr BlockId FirstGapBlock = 2;

/// Inter-child gaps shorter than this are attributed to quantization loss
/// instead of emitting a block.
inline constexpr uint64_t MinGapNs = 1024;

/// Cap on raw records buffered between drains, across all threads;
/// records past it are dropped and counted in RecordsDropped.
inline constexpr size_t MaxBufferedRecords = size_t(1) << 22;

/// Log2 bucket with 2 mantissa bits for \p Ns (>= 4). Monotonic in Ns;
/// at most ~19% relative quantization error at bucket edges.
uint32_t gapBucketOf(uint64_t Ns);

/// Representative nanoseconds of \p Bucket (the bucket range midpoint) —
/// what the reporter multiplies use counts by.
uint64_t gapBucketRepresentativeNs(uint32_t Bucket);

} // namespace selfprof

/// Accounting of one adaptation / one profiling run. Mirrors the
/// selfprof.* metric names (obs/Names.h).
struct SelfProfileStats {
  uint64_t Spans = 0;          ///< Span instances lowered (Enter events).
  uint64_t Events = 0;         ///< Total Enter+Block+Exit events emitted.
  uint64_t RecordsDropped = 0; ///< Ring records lost to wraparound/tearing.
  uint64_t TruncatedSpans = 0; ///< Orphan E records (B overwritten) dropped.
  uint64_t UnclosedSpans = 0;  ///< B records synthesized closed at drain.
  uint64_t Functions = 0;      ///< Distinct span paths (FunctionCount).
  uint64_t ArchiveBytes = 0;   ///< Bytes of the written .twppa.
  uint64_t TraceJsonBytes = 0; ///< Equivalent Chrome-JSON bytes (optional).
};

/// The pure adaptation result: a well-nested RawTrace plus the maps the
/// sidecar persists. Exposed (rather than buried in SelfProfiler) so the
/// tests can drive scripted record streams through the exact production
/// lowering.
struct SpanEventStream {
  RawTrace Trace;
  /// Span path per FunctionId, in first-seen order.
  std::vector<std::string> FunctionPaths;
  /// (gap block id, representative ns) for every gap bucket the stream
  /// used, sorted by block id.
  std::vector<std::pair<BlockId, uint64_t>> GapBlocks;
  SelfProfileStats Stats;
};

/// Lowers per-thread flight-recorder records (index = tid, in ring
/// creation order, so tid 0 need not be the main thread) into one
/// well-nested Enter/Block/Exit stream. Only Begin/End records
/// participate; Instant/Counter records are skipped. Gaps shorter than
/// selfprof::MinGapNs are not encoded. The result's Trace always
/// satisfies RawTrace::isWellFormed().
SpanEventStream
adaptSpanRecords(const std::vector<std::vector<TraceRecord>> &PerThread);

/// Configuration of a profiling run.
struct SelfProfileConfig {
  /// Output archive path (.twppa). Required; the sidecar goes to
  /// ArchivePath + ".meta".
  std::string ArchivePath;
  /// Also measure the equivalent Chrome-trace JSON export's size into
  /// Stats.TraceJsonBytes (the compaction-ratio comparison).
  bool CompareTraceJson = false;
};

/// One continuous profiling run: enable tracing, drain the rings
/// incrementally, and on finish() lower + compact + write the archive.
/// drain() may be called from any one thread at a time (the profiler is
/// externally synchronized); recording threads are never blocked.
class SelfProfiler {
public:
  explicit SelfProfiler(SelfProfileConfig Config);
  ~SelfProfiler();

  SelfProfiler(const SelfProfiler &) = delete;
  SelfProfiler &operator=(const SelfProfiler &) = delete;

  /// Pulls new records out of every ring since the previous drain. Cheap
  /// (memcpy of the new window); call between pipeline stages or from
  /// bench checkpoints so long runs outlive the rings' capacity.
  void drain();

  /// Final drain + lowering + streaming compaction + archive/sidecar
  /// write + metric publication. Stops tracing first so the rings are
  /// quiescent. \returns false (with \p Error filled) when the archive
  /// or sidecar cannot be written; the stats are valid either way.
  bool finish(SelfProfileStats &Stats, std::string *Error = nullptr);

private:
  struct RingCursor {
    TraceRing *Ring = nullptr;
    uint64_t Cursor = 0;
  };

  SelfProfileConfig Config;
  std::vector<RingCursor> Cursors;             ///< Indexed by tid.
  std::vector<std::vector<TraceRecord>> Buffered; ///< Indexed by tid.
  size_t BufferedCount = 0;
  uint64_t LostRecords = 0;
  bool TracingWasOn = false;
  bool Finished = false;
};

//===----------------------------------------------------------------------===//
// Sidecar — the plain-text map from archive ids back to span paths and
// nanoseconds ("twpp-selfprof-meta-v1"). Deliberately not JSON: the
// reporting tool parses it with a dozen lines and no dependencies.
//===----------------------------------------------------------------------===//

struct SelfProfileMeta {
  uint64_t MinGapNs = 0;
  std::vector<std::string> FunctionPaths; ///< Indexed by FunctionId.
  std::vector<std::pair<BlockId, uint64_t>> GapBlocks;
  SelfProfileStats Stats;
};

/// Renders the sidecar document.
std::string encodeSelfProfileMeta(const SelfProfileMeta &Meta);

/// Parses a sidecar document. \returns false on malformed input.
bool decodeSelfProfileMeta(const std::string &Text, SelfProfileMeta &Meta);

/// Loads \p Path and parses it. \returns false on IO or parse failure.
bool readSelfProfileMetaFile(const std::string &Path, SelfProfileMeta &Meta);

} // namespace twpp::obs

#endif // TWPP_OBS_SELFPROFILE_H
