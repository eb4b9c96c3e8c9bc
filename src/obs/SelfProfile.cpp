//===- obs/SelfProfile.cpp - Continuous self-profiling --------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "obs/SelfProfile.h"

#include "obs/Metrics.h"
#include "obs/Names.h"
#include "support/FileIO.h"
#include "wpp/Archive.h"
#include "wpp/Streaming.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <sstream>
#include <unordered_map>

using namespace twpp;
using namespace twpp::obs;

//===----------------------------------------------------------------------===//
// Gap buckets
//===----------------------------------------------------------------------===//

uint32_t selfprof::gapBucketOf(uint64_t Ns) {
  // Below 4ns the mantissa scheme has no room; those buckets are exact.
  if (Ns < 4)
    return static_cast<uint32_t>(Ns);
  uint32_t Exp = 63 - static_cast<uint32_t>(std::countl_zero(Ns));
  uint32_t Mant = static_cast<uint32_t>((Ns >> (Exp - 2)) & 3);
  return Exp * 4 + Mant;
}

uint64_t selfprof::gapBucketRepresentativeNs(uint32_t Bucket) {
  if (Bucket < 4)
    return Bucket;
  uint32_t Exp = Bucket / 4;
  uint32_t Mant = Bucket % 4;
  uint64_t Low = (uint64_t(4 + Mant)) << (Exp - 2);
  uint64_t Width = uint64_t(1) << (Exp - 2);
  return Low + Width / 2;
}

//===----------------------------------------------------------------------===//
// Adaptation: flight-recorder records -> well-nested Enter/Block/Exit
//===----------------------------------------------------------------------===//

namespace {

/// One span instance reconstructed from a B/E pair. Name aliases the
/// source TraceRecord's inline buffer (the caller's vectors outlive the
/// adaptation), so building the forest allocates only the nodes.
struct SpanNode {
  std::string_view Name;
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  std::vector<SpanNode *> Children;
};

class Lowerer {
public:
  Lowerer(RawTrace &Trace, SelfProfileStats &Stats)
      : Trace(Trace), Stats(Stats) {}

  void emitSpan(const SpanNode *N, const std::string &ParentPath) {
    std::string Path = ParentPath.empty()
                           ? std::string(N->Name)
                           : ParentPath + "/" + std::string(N->Name);
    auto [It, Inserted] =
        Ids.try_emplace(Path, static_cast<FunctionId>(Paths.size()));
    if (Inserted)
      Paths.push_back(Path);
    FunctionId F = It->second;
    ++Stats.Spans;
    Trace.Events.push_back(TraceEvent::enter(F));
    Trace.Events.push_back(TraceEvent::block(selfprof::CallMarkerBlock));
    uint64_t Cursor = N->BeginNs;
    for (const SpanNode *C : N->Children) {
      emitGap(C->BeginNs > Cursor ? C->BeginNs - Cursor : 0);
      emitSpan(C, Path);
      Cursor = std::max(Cursor, C->EndNs);
    }
    emitGap(N->EndNs > Cursor ? N->EndNs - Cursor : 0);
    Trace.Events.push_back(TraceEvent::exit());
  }

  const std::map<BlockId, uint64_t> &usedGapBlocks() const {
    return UsedGaps;
  }

  /// Span path per FunctionId: ids are dense, in first-seen order.
  std::vector<std::string> takePaths() { return std::move(Paths); }

private:
  void emitGap(uint64_t Ns) {
    if (Ns == 0 || Ns < selfprof::MinGapNs)
      return;
    uint32_t Bucket = selfprof::gapBucketOf(Ns);
    BlockId B = selfprof::FirstGapBlock + Bucket;
    UsedGaps.emplace(B, selfprof::gapBucketRepresentativeNs(Bucket));
    Trace.Events.push_back(TraceEvent::block(B));
  }

  RawTrace &Trace;
  SelfProfileStats &Stats;
  std::map<BlockId, uint64_t> UsedGaps;
  std::unordered_map<std::string, FunctionId> Ids;
  std::vector<std::string> Paths;
};

} // namespace

SpanEventStream
twpp::obs::adaptSpanRecords(
    const std::vector<std::vector<TraceRecord>> &PerThread) {
  SpanEventStream Out;

  // Pass 1: rebuild each thread's span forest from its B/E stream. Ring
  // truncation shows up as orphan E records (opening B overwritten —
  // drop, count) and as still-open B records at the end (synthesize the
  // close, count). Every thread's root spans are roots of the profile.
  std::deque<SpanNode> Pool;
  std::vector<SpanNode *> Roots;
  for (const std::vector<TraceRecord> &Records : PerThread) {
    std::vector<SpanNode *> Stack;
    uint64_t LastTs = 0;
    for (const TraceRecord &R : Records) {
      LastTs = std::max(LastTs, R.TsNs);
      switch (R.K) {
      case TraceRecord::Kind::Begin: {
        SpanNode &N = Pool.emplace_back();
        N.Name = std::string_view(R.Name);
        N.BeginNs = R.TsNs;
        (Stack.empty() ? Roots : Stack.back()->Children).push_back(&N);
        Stack.push_back(&N);
        break;
      }
      case TraceRecord::Kind::End:
        if (Stack.empty()) {
          ++Out.Stats.TruncatedSpans;
          break;
        }
        Stack.back()->EndNs = std::max(R.TsNs, Stack.back()->BeginNs);
        Stack.pop_back();
        break;
      case TraceRecord::Kind::Instant:
      case TraceRecord::Kind::Counter:
        break;
      }
    }
    for (SpanNode *N : Stack) {
      N->EndNs = std::max(LastTs, N->BeginNs);
      ++Out.Stats.UnclosedSpans;
    }
  }

  // Pass 2: order the roots of all threads by begin time and
  // DFS-linearize. The result is well-nested by construction —
  // timestamps only drive the gap blocks, so clock skew between threads
  // can never unbalance the stream.
  std::stable_sort(Roots.begin(), Roots.end(),
                   [](const SpanNode *A, const SpanNode *B) {
                     return A->BeginNs < B->BeginNs;
                   });
  Lowerer L(Out.Trace, Out.Stats);
  for (const SpanNode *R : Roots)
    L.emitSpan(R, std::string());

  Out.FunctionPaths = L.takePaths();
  Out.Trace.FunctionCount = static_cast<uint32_t>(Out.FunctionPaths.size());
  Out.GapBlocks.assign(L.usedGapBlocks().begin(), L.usedGapBlocks().end());
  Out.Stats.Events = Out.Trace.Events.size();
  Out.Stats.Functions = Out.FunctionPaths.size();
  return Out;
}

//===----------------------------------------------------------------------===//
// SelfProfiler
//===----------------------------------------------------------------------===//

SelfProfiler::SelfProfiler(SelfProfileConfig C) : Config(std::move(C)) {
  TracingWasOn = tracingEnabled();
  setTracingEnabled(true);
}

SelfProfiler::~SelfProfiler() {
  if (!Finished)
    setTracingEnabled(TracingWasOn);
}

void SelfProfiler::drain() {
  for (const TraceRecorder::RingRef &R : traceRecorder().rings()) {
    if (R.Tid >= Cursors.size()) {
      Cursors.resize(R.Tid + 1);
      Buffered.resize(R.Tid + 1);
    }
    RingCursor &C = Cursors[R.Tid];
    C.Ring = R.Ring;
    uint64_t Lost = 0;
    std::vector<TraceRecord> Records = R.Ring->drainFrom(C.Cursor, Lost);
    LostRecords += Lost;
    for (TraceRecord &Rec : Records) {
      if (BufferedCount >= selfprof::MaxBufferedRecords) {
        ++LostRecords;
        continue;
      }
      Buffered[R.Tid].push_back(Rec);
      ++BufferedCount;
    }
  }
}

bool SelfProfiler::finish(SelfProfileStats &Stats, std::string *Error) {
  if (Finished) {
    if (Error)
      *Error = "self-profiler already finished";
    return false;
  }
  Finished = true;
  // Stop recording before the final drain so the rings go quiescent;
  // restore the caller's tracing preference on the way out.
  setTracingEnabled(false);

  uint64_t JsonBytes = 0;
  if (Config.CompareTraceJson)
    JsonBytes = exportTraceJson(traceRecorder()).size();
  drain();

  SpanEventStream Stream = adaptSpanRecords(Buffered);
  Stream.Stats.RecordsDropped = LostRecords;
  Stream.Stats.TraceJsonBytes = JsonBytes;

  // Feed the lowered stream through a dedicated streaming compactor —
  // the same ingest path any traced program uses, which is the point of
  // the dogfood.
  StreamingCompactor Compactor(Stream.Trace.FunctionCount);
  for (const TraceEvent &E : Stream.Trace.Events) {
    switch (E.EventKind) {
    case TraceEvent::Kind::Enter:
      Compactor.onEnter(E.Id);
      break;
    case TraceEvent::Kind::Block:
      Compactor.onBlock(E.Id);
      break;
    case TraceEvent::Kind::Exit:
      Compactor.onExit();
      break;
    }
  }
  TwppWpp Wpp = Compactor.takeCompacted();

  bool Ok = true;
  IoError IoErr;
  if (!writeArchiveFile(Config.ArchivePath, Wpp, {}, &IoErr)) {
    Ok = false;
    if (Error)
      *Error = IoErr.message();
  }
  Stream.Stats.ArchiveBytes = fileSize(Config.ArchivePath).value_or(0);

  if (Ok) {
    SelfProfileMeta Meta;
    Meta.MinGapNs = selfprof::MinGapNs;
    Meta.FunctionPaths = Stream.FunctionPaths;
    Meta.GapBlocks = Stream.GapBlocks;
    Meta.Stats = Stream.Stats;
    std::string Text = encodeSelfProfileMeta(Meta);
    std::vector<uint8_t> Bytes(Text.begin(), Text.end());
    IoError MetaErr =
        writeFileBytesAtomic(Config.ArchivePath + ".meta", Bytes);
    if (!MetaErr.ok()) {
      Ok = false;
      if (Error)
        *Error = MetaErr.message();
    }
  }

  // Publish the run's accounting as live metrics (no-ops while metric
  // collection is off, like every other instrumentation site).
  MetricsRegistry &M = metrics();
  M.counter(names::SelfprofSpans).add(Stream.Stats.Spans);
  M.counter(names::SelfprofRecordsDropped).add(Stream.Stats.RecordsDropped);
  M.counter(names::SelfprofTruncatedSpans).add(Stream.Stats.TruncatedSpans);
  M.counter(names::SelfprofUnclosedSpans).add(Stream.Stats.UnclosedSpans);
  M.gauge(names::SelfprofFunctions)
      .set(static_cast<int64_t>(Stream.Stats.Functions));

  Stats = Stream.Stats;
  setTracingEnabled(TracingWasOn);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Sidecar
//===----------------------------------------------------------------------===//

std::string twpp::obs::encodeSelfProfileMeta(const SelfProfileMeta &Meta) {
  std::ostringstream Out;
  Out << "twpp-selfprof-meta-v1\n";
  Out << "mingap " << Meta.MinGapNs << "\n";
  for (size_t I = 0; I != Meta.FunctionPaths.size(); ++I)
    Out << "fn " << I << " " << Meta.FunctionPaths[I] << "\n";
  for (const auto &[Block, Ns] : Meta.GapBlocks)
    Out << "blk " << Block << " " << Ns << "\n";
  const SelfProfileStats &S = Meta.Stats;
  Out << "stat spans " << S.Spans << "\n";
  Out << "stat events " << S.Events << "\n";
  Out << "stat records_dropped " << S.RecordsDropped << "\n";
  Out << "stat truncated_spans " << S.TruncatedSpans << "\n";
  Out << "stat unclosed_spans " << S.UnclosedSpans << "\n";
  Out << "stat functions " << S.Functions << "\n";
  Out << "stat archive_bytes " << S.ArchiveBytes << "\n";
  Out << "stat trace_json_bytes " << S.TraceJsonBytes << "\n";
  return Out.str();
}

bool twpp::obs::decodeSelfProfileMeta(const std::string &Text,
                                      SelfProfileMeta &Meta) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "twpp-selfprof-meta-v1")
    return false;
  SelfProfileMeta Out;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream L(Line);
    std::string Tag;
    L >> Tag;
    if (Tag == "mingap") {
      if (!(L >> Out.MinGapNs))
        return false;
    } else if (Tag == "fn") {
      uint64_t Id = 0;
      if (!(L >> Id))
        return false;
      std::string Path;
      std::getline(L, Path);
      if (!Path.empty() && Path.front() == ' ')
        Path.erase(Path.begin());
      if (Id >= Out.FunctionPaths.size())
        Out.FunctionPaths.resize(Id + 1);
      Out.FunctionPaths[Id] = Path;
    } else if (Tag == "blk") {
      BlockId Block = 0;
      uint64_t Ns = 0;
      if (!(L >> Block >> Ns))
        return false;
      Out.GapBlocks.emplace_back(Block, Ns);
    } else if (Tag == "stat") {
      std::string Name;
      uint64_t Value = 0;
      if (!(L >> Name >> Value))
        return false;
      SelfProfileStats &S = Out.Stats;
      if (Name == "spans")
        S.Spans = Value;
      else if (Name == "events")
        S.Events = Value;
      else if (Name == "records_dropped")
        S.RecordsDropped = Value;
      else if (Name == "truncated_spans")
        S.TruncatedSpans = Value;
      else if (Name == "unclosed_spans")
        S.UnclosedSpans = Value;
      else if (Name == "functions")
        S.Functions = Value;
      else if (Name == "archive_bytes")
        S.ArchiveBytes = Value;
      else if (Name == "trace_json_bytes")
        S.TraceJsonBytes = Value;
      // Unknown stats are ignored: forward compatibility.
    } else {
      return false; // Unknown tag: not ours.
    }
  }
  Meta = std::move(Out);
  return true;
}

bool twpp::obs::readSelfProfileMetaFile(const std::string &Path,
                                        SelfProfileMeta &Meta) {
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes).ok())
    return false;
  return decodeSelfProfileMeta(std::string(Bytes.begin(), Bytes.end()), Meta);
}
