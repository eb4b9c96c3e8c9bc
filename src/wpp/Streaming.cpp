//===- wpp/Streaming.cpp - Online WPP compaction ---------------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/DeepSize.h"
#include "wpp/Streaming.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "obs/Trace.h"
#include "support/ByteStream.h"
#include "support/FaultInjection.h"
#include "wpp/Journal.h"
#include "wpp/Sizes.h"
#include "wpp/VerifyHooks.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <unordered_map>

using namespace twpp;

namespace {

/// Dedupe helper shared conceptually with Partition.cpp: maps a path
/// trace to its index in a function's unique trace table, bucketed by
/// hash and verified by comparison.
class TraceInterner {
public:
  /// \returns the index of \p Trace in \p Table, copying it in only when
  /// it is new (so the caller's buffer can be reused).
  uint32_t intern(FunctionTraceTable &Table, const PathTrace &Trace) {
    uint64_t Hash = hashBlockSequence(Trace);
    auto Range = Buckets.equal_range(Hash);
    for (auto It = Range.first; It != Range.second; ++It)
      if (Table.UniqueTraces[It->second] == Trace)
        return It->second;
    static obs::Counter &UniqueTraces =
        obs::metrics().counter(obs::names::PartitionUniqueTraces);
    UniqueTraces.add();
    uint32_t Index = static_cast<uint32_t>(Table.UniqueTraces.size());
    Table.UniqueTraces.push_back(Trace);
    Table.UseCounts.push_back(0);
    Buckets.emplace(Hash, Index);
    return Index;
  }

  /// Reseeds the hash buckets from an already-populated table (the
  /// resume path). Index assignment matches what repeated intern() calls
  /// would have produced, so a restored compactor interns identically.
  void rebuild(const FunctionTraceTable &Table) {
    Buckets.clear();
    for (uint32_t I = 0; I < Table.UniqueTraces.size(); ++I)
      Buckets.emplace(hashBlockSequence(Table.UniqueTraces[I]), I);
  }

private:
  std::unordered_multimap<uint64_t, uint32_t> Buckets;
};

/// Accounting model for the degradable state: the obs::deepSize figures of
/// what the compactor actually holds (interned trace buffers and open
/// frames), so MemoryBudgetBytes bounds the same quantity the memory
/// audits report. Exactly recomputable from a restored snapshot
/// (restoreState recomputes from scratch and lands on the same number the
/// incremental updates did) and independent of observability being on.
uint64_t uniqueTraceBytes(size_t Blocks) {
  return obs::pathTraceDeepSize(Blocks);
}

} // namespace

struct StreamingCompactor::Impl {
  StreamingConfig Config;
  PartitionedWpp Wpp;
  std::vector<TraceInterner> Interners;

  struct Frame {
    uint32_t NodeIndex;
    PathTrace Blocks;
  };
  std::vector<Frame> Stack;

  JournalWriter Journal;
  IoError LastJournalError;
  uint64_t EventCount = 0;
  uint64_t Checkpoints = 0;
  uint64_t Degraded = 0;
  /// Block buffers of exited frames, kept for reuse by the next calls so
  /// a call does not pay for a fresh allocation.
  std::vector<PathTrace> SpareBlocks;
  /// Unique-trace + open-frame bytes per the deep-size model. A plain
  /// per-instance counter (the compactor runs on one thread, and the
  /// budget must behave identically whether or not tracking is enabled),
  /// mirrored into the global stream.state tag when tracking is armed.
  int64_t StateBytes = 0;

  static uint64_t openFrameBytes(size_t Blocks) {
    return sizeof(Frame) + Blocks * sizeof(BlockId);
  }

  static obs::MemAccount &stateTag() {
    static obs::MemAccount &Tag =
        obs::memTracker().account(obs::memtags::StreamState);
    return Tag;
  }

  /// The ledger's live-bytes figure for this compactor.
  uint64_t stateBytes() const {
    return StateBytes > 0 ? static_cast<uint64_t>(StateBytes) : 0;
  }

  void stateAlloc(uint64_t Bytes) {
    StateBytes += static_cast<int64_t>(Bytes);
    if (obs::memTrackingEnabled())
      stateTag().recordAlloc(Bytes);
  }

  void stateFree(uint64_t Bytes) {
    StateBytes -= static_cast<int64_t>(Bytes);
    if (obs::memTrackingEnabled())
      stateTag().recordFree(Bytes);
  }

  void stateReset() {
    if (uint64_t Live = stateBytes(); Live && obs::memTrackingEnabled())
      stateTag().recordFree(Live);
    StateBytes = 0;
  }

  /// An empty block buffer for a new frame, recycled when one is spare.
  PathTrace takeBlocks() {
    if (SpareBlocks.empty())
      return PathTrace();
    PathTrace Blocks = std::move(SpareBlocks.back());
    SpareBlocks.pop_back();
    return Blocks;
  }

  void recycleBlocks(PathTrace &&Blocks) {
    Blocks.clear();
    SpareBlocks.push_back(std::move(Blocks));
  }

  explicit Impl(uint32_t FunctionCount) {
    Wpp.Functions.resize(FunctionCount);
    Interners.resize(FunctionCount);
  }

  ~Impl() { stateReset(); } // release the mirrored stream.state live bytes

  /// Back to an empty stream (after takePartitioned), keeping the
  /// journal, config and cumulative checkpoint/degrade counters.
  void resetStream(size_t FunctionCount) {
    Wpp = PartitionedWpp{};
    Wpp.Functions.resize(FunctionCount);
    Interners.assign(FunctionCount, TraceInterner());
    Stack.clear();
    EventCount = 0;
    stateReset();
  }

  /// Serializes the complete state. Everything onEnter/onBlock/onExit
  /// mutate is captured, so replaying the residual event suffix on a
  /// restored compactor reproduces the uninterrupted run byte for byte.
  std::vector<uint8_t> snapshot() const {
    ByteWriter W;
    W.writeFixed32(static_cast<uint32_t>(Wpp.Functions.size()));
    W.writeFixed64(EventCount);
    W.writeFixed64(Degraded);
    std::vector<uint8_t> Dcg = encodeDcg(Wpp.Dcg);
    W.writeVarUint(Dcg.size());
    W.writeBytes(Dcg.data(), Dcg.size());
    for (const FunctionTraceTable &Table : Wpp.Functions) {
      W.writeVarUint(Table.CallCount);
      W.writeVarUint(Table.TotalBlockEvents);
      W.writeVarUint(Table.UniqueTraces.size());
      for (const PathTrace &Trace : Table.UniqueTraces) {
        W.writeVarUint(Trace.size());
        for (BlockId B : Trace)
          W.writeVarUint(B);
      }
      for (uint64_t Uses : Table.UseCounts)
        W.writeVarUint(Uses);
    }
    W.writeVarUint(Stack.size());
    for (const Frame &F : Stack) {
      W.writeVarUint(F.NodeIndex);
      W.writeVarUint(F.Blocks.size());
      for (BlockId B : F.Blocks)
        W.writeVarUint(B);
    }
    return W.take();
  }

  /// Appends one checkpoint to the open journal. Failures (IO or
  /// allocation, injected or real) are counted and remembered, never
  /// propagated as aborts: losing checkpoint granularity is strictly
  /// better than losing the traced process.
  IoError writeCheckpoint() {
    obs::PhaseSpan Span("journal_checkpoint");
    IoError Result;
    try {
      fault::maybeFailAlloc();
      Result = Journal.append(snapshot());
    } catch (const std::bad_alloc &) {
      Result.Status = IoStatus::WriteFailed;
      Result.Detail = Journal.path() + " (checkpoint allocation failed)";
    }
    obs::MetricsRegistry &M = obs::metrics();
    if (Result.ok()) {
      ++Checkpoints;
      M.counter(obs::names::JournalCheckpoints).add();
    } else {
      LastJournalError = Result;
      M.counter(obs::names::JournalCheckpointFailures).add();
    }
    return Result;
  }

  void maybeCheckpoint() {
    if (Config.CheckpointInterval == 0 || !Journal.isOpen())
      return;
    if (EventCount % Config.CheckpointInterval == 0)
      writeCheckpoint();
  }

  /// Budget enforcement: drop the oldest open frame's block detail (and
  /// zero that node's already-recorded anchors, keeping the DCG anchor
  /// invariants intact against the now-shorter trace) until back under
  /// budget or nothing is left to drop.
  void enforceBudget() {
    if (Config.MemoryBudgetBytes == 0 ||
        stateBytes() <= Config.MemoryBudgetBytes)
      return;
    for (Frame &F : Stack) {
      if (F.Blocks.empty())
        continue;
      stateFree(F.Blocks.size() * sizeof(BlockId));
      PathTrace().swap(F.Blocks);
      DcgNode &Node = Wpp.Dcg.Nodes[F.NodeIndex];
      std::fill(Node.Anchors.begin(), Node.Anchors.end(), 0);
      ++Degraded;
      obs::metrics().counter(obs::names::StreamDegraded).add();
      obs::traceInstant("stream_degraded", "frame",
                        static_cast<int64_t>(F.NodeIndex));
      if (stateBytes() <= Config.MemoryBudgetBytes)
        return;
    }
  }

  /// What every applied event ends with: count it, then enforce the
  /// budget and take a checkpoint when one is due.
  void finishEvent() {
    ++EventCount;
    enforceBudget();
    maybeCheckpoint();
  }

  void enter(FunctionId F) {
    uint32_t NodeIndex = static_cast<uint32_t>(Wpp.Dcg.Nodes.size());
    Wpp.Dcg.Nodes.push_back(DcgNode{F, 0, {}, {}});
    if (Stack.empty()) {
      Wpp.Dcg.Roots.push_back(NodeIndex);
    } else {
      Frame &Parent = Stack.back();
      Wpp.Dcg.Nodes[Parent.NodeIndex].Children.push_back(NodeIndex);
      Wpp.Dcg.Nodes[Parent.NodeIndex].Anchors.push_back(
          static_cast<uint32_t>(Parent.Blocks.size()));
    }
    Stack.push_back(Frame{NodeIndex, takeBlocks()});
    stateAlloc(openFrameBytes(0));
    finishEvent();
  }

  void block(BlockId B) {
    Stack.back().Blocks.push_back(B);
    stateAlloc(sizeof(BlockId));
    finishEvent();
  }

  void exit() {
    Frame Top = std::move(Stack.back());
    Stack.pop_back();
    if (obs::enabled()) {
      obs::MetricsRegistry &M = obs::metrics();
      static obs::Counter &Calls = M.counter(obs::names::PartitionCalls);
      static obs::Counter &BlockEvents =
          M.counter(obs::names::PartitionBlockEvents);
      Calls.add();
      BlockEvents.add(Top.Blocks.size());
    }
    DcgNode &Node = Wpp.Dcg.Nodes[Top.NodeIndex];
    FunctionTraceTable &Table = Wpp.Functions[Node.Function];
    ++Table.CallCount;
    Table.TotalBlockEvents += Top.Blocks.size();
    size_t TraceLen = Top.Blocks.size();
    size_t UniqueBefore = Table.UniqueTraces.size();
    Node.TraceIndex = Interners[Node.Function].intern(Table, Top.Blocks);
    recycleBlocks(std::move(Top.Blocks));
    ++Table.UseCounts[Node.TraceIndex];
    stateFree(openFrameBytes(TraceLen));
    if (Table.UniqueTraces.size() > UniqueBefore)
      stateAlloc(uniqueTraceBytes(TraceLen));
    finishEvent();
  }
};

StreamingCompactor::StreamingCompactor(uint32_t FunctionCount)
    : StreamingCompactor(FunctionCount, StreamingConfig()) {}

StreamingCompactor::StreamingCompactor(uint32_t FunctionCount,
                                       const StreamingConfig &Config)
    : P(std::make_unique<Impl>(FunctionCount)) {
  P->Config = Config;
  if (!Config.JournalPath.empty()) {
    IoError E = P->Journal.open(Config.JournalPath, /*Append=*/false);
    if (!E) {
      // Journaling is an add-on; a compactor that cannot journal still
      // compacts.
      P->LastJournalError = E;
      obs::metrics().counter(obs::names::JournalCheckpointFailures).add();
    }
  }
}

StreamingCompactor::~StreamingCompactor() = default;

void StreamingCompactor::onEnter(FunctionId F) {
  assert(F < P->Wpp.Functions.size() && "function id out of range");
  P->enter(F);
}

void StreamingCompactor::onBlock(BlockId B) {
  assert(!P->Stack.empty() && "block event outside any call");
  P->block(B);
}

void StreamingCompactor::onExit() {
  assert(!P->Stack.empty() && "exit event outside any call");
  P->exit();
}

void StreamingCompactor::onEvents(const TraceEvent *First,
                                  const TraceEvent *Last, uint64_t &Applied,
                                  uint64_t &Dropped) {
  const size_t Functions = P->Wpp.Functions.size();
  uint64_t Done = 0, Skipped = 0;
  try {
    for (; First != Last; ++First) {
      switch (First->EventKind) {
      case TraceEvent::Kind::Enter:
        if (First->Id >= Functions) {
          ++Skipped;
          continue;
        }
        P->enter(First->Id);
        break;
      case TraceEvent::Kind::Block:
        if (P->Stack.empty()) {
          ++Skipped;
          continue;
        }
        P->block(First->Id);
        break;
      case TraceEvent::Kind::Exit:
        if (P->Stack.empty()) {
          ++Skipped;
          continue;
        }
        P->exit();
        break;
      }
      ++Done;
    }
  } catch (...) {
    // The event that threw counts as neither.
    Applied += Done;
    Dropped += Skipped;
    throw;
  }
  Applied += Done;
  Dropped += Skipped;
}

size_t StreamingCompactor::openFrames() const { return P->Stack.size(); }

uint32_t StreamingCompactor::functionCount() const {
  return static_cast<uint32_t>(P->Wpp.Functions.size());
}

uint64_t StreamingCompactor::eventsConsumed() const { return P->EventCount; }

uint64_t StreamingCompactor::checkpointsWritten() const {
  return P->Checkpoints;
}

uint64_t StreamingCompactor::degradedFrames() const { return P->Degraded; }

uint64_t StreamingCompactor::trackedStateBytes() const {
  return P->stateBytes();
}

const IoError &StreamingCompactor::lastJournalError() const {
  return P->LastJournalError;
}

std::vector<uint8_t> StreamingCompactor::snapshotState() const {
  return P->snapshot();
}

bool StreamingCompactor::restoreState(const std::vector<uint8_t> &Payload) {
  ByteReader Reader(Payload);
  if (Reader.readFixed32() != P->Wpp.Functions.size())
    return false;
  uint64_t EventCount = Reader.readFixed64();
  uint64_t Degraded = Reader.readFixed64();

  uint64_t DcgSize = Reader.readVarUint();
  if (Reader.hasError() || DcgSize > Reader.remaining())
    return false;
  std::vector<uint8_t> DcgBytes(DcgSize);
  Reader.readBytes(DcgBytes.data(), DcgBytes.size());
  DynamicCallGraph Dcg;
  if (!decodeDcg(DcgBytes, Dcg))
    return false;

  std::vector<FunctionTraceTable> Functions(P->Wpp.Functions.size());
  for (FunctionTraceTable &Table : Functions) {
    Table.CallCount = Reader.readVarUint();
    Table.TotalBlockEvents = Reader.readVarUint();
    uint64_t TraceCount = Reader.readVarUint();
    // Every trace costs at least one byte, so a count beyond the bytes
    // left is a lie — reject before it turns into a huge allocation.
    if (Reader.hasError() || TraceCount > Reader.remaining())
      return false;
    Table.UniqueTraces.resize(TraceCount);
    for (PathTrace &Trace : Table.UniqueTraces) {
      uint64_t Length = Reader.readVarUint();
      if (Reader.hasError() || Length > Reader.remaining())
        return false;
      Trace.resize(Length);
      for (BlockId &B : Trace) {
        uint64_t Value = Reader.readVarUint();
        if (Value > UINT32_MAX)
          return false;
        B = static_cast<BlockId>(Value);
      }
    }
    Table.UseCounts.resize(TraceCount);
    for (uint64_t &Uses : Table.UseCounts)
      Uses = Reader.readVarUint();
  }

  uint64_t StackSize = Reader.readVarUint();
  if (Reader.hasError() || StackSize > Reader.remaining())
    return false;
  std::vector<Impl::Frame> Stack(StackSize);
  uint32_t PrevNode = 0;
  for (size_t F = 0; F < Stack.size(); ++F) {
    uint64_t NodeIndex = Reader.readVarUint();
    // Frames are the path from a root to the innermost open call;
    // ancestors were created first, so indices strictly increase.
    if (NodeIndex >= Dcg.Nodes.size() ||
        (F > 0 && NodeIndex <= PrevNode))
      return false;
    Stack[F].NodeIndex = static_cast<uint32_t>(NodeIndex);
    PrevNode = static_cast<uint32_t>(NodeIndex);
    uint64_t Length = Reader.readVarUint();
    if (Reader.hasError() || Length > Reader.remaining())
      return false;
    Stack[F].Blocks.resize(Length);
    for (BlockId &B : Stack[F].Blocks) {
      uint64_t Value = Reader.readVarUint();
      if (Value > UINT32_MAX)
        return false;
      B = static_cast<BlockId>(Value);
    }
  }
  if (Reader.hasError() || !Reader.atEnd())
    return false;

  // Cross-validate the DCG against the tables so a tampered checkpoint
  // cannot plant out-of-bounds indices the pipeline would chase later.
  std::vector<bool> Open(Dcg.Nodes.size(), false);
  for (const Impl::Frame &F : Stack)
    Open[F.NodeIndex] = true;
  for (size_t N = 0; N < Dcg.Nodes.size(); ++N) {
    const DcgNode &Node = Dcg.Nodes[N];
    if (Node.Function >= Functions.size())
      return false;
    if (!Open[N] &&
        Node.TraceIndex >= Functions[Node.Function].UniqueTraces.size())
      return false;
  }

  P->Wpp.Dcg = std::move(Dcg);
  P->Wpp.Functions = std::move(Functions);
  P->Stack = std::move(Stack);
  P->EventCount = EventCount;
  P->Degraded = Degraded;
  for (size_t F = 0; F < P->Wpp.Functions.size(); ++F)
    P->Interners[F].rebuild(P->Wpp.Functions[F]);
  P->stateReset();
  uint64_t Recomputed = 0;
  for (const FunctionTraceTable &Table : P->Wpp.Functions)
    for (const PathTrace &Trace : Table.UniqueTraces)
      Recomputed += uniqueTraceBytes(Trace.size());
  for (const Impl::Frame &F : P->Stack)
    Recomputed += Impl::openFrameBytes(F.Blocks.size());
  P->stateAlloc(Recomputed);
  return true;
}

IoError StreamingCompactor::checkpointNow() {
  if (!P->Journal.isOpen())
    return IoError::success();
  return P->writeCheckpoint();
}

std::unique_ptr<StreamingCompactor>
StreamingCompactor::resumeFromJournal(const std::string &JournalPath,
                                      const StreamingConfig &Config,
                                      std::string *Error) {
  auto Fail = [&](std::string Message) {
    if (Error)
      *Error = std::move(Message);
    return nullptr;
  };
  std::vector<uint8_t> Bytes;
  IoError Read = readFileBytes(JournalPath, Bytes);
  if (!Read)
    return Fail("cannot read journal: " + Read.message());
  JournalScan Scan = scanJournal(Bytes);
  if (Scan.CorruptRecords > 0 || Scan.TornBytes > 0)
    obs::metrics()
        .counter(obs::names::JournalRecordsDropped)
        .add(Scan.CorruptRecords + (Scan.TornBytes > 0 ? 1 : 0));
  if (Scan.ValidRecords == 0)
    return Fail("journal holds no valid checkpoint: " + JournalPath);
  ByteReader Peek(Scan.LastPayload);
  uint32_t FunctionCount = Peek.readFixed32();
  if (Peek.hasError())
    return Fail("checkpoint payload is truncated: " + JournalPath);

  auto Out = std::make_unique<StreamingCompactor>(FunctionCount);
  if (!Out->restoreState(Scan.LastPayload))
    return Fail("checkpoint payload is malformed: " + JournalPath);
  Out->P->Config = Config;
  std::string ReopenPath =
      Config.JournalPath.empty() ? JournalPath : Config.JournalPath;
  // Reopen in append mode: the records already there stay valid fallback
  // checkpoints if this process also dies.
  IoError Reopen = Out->P->Journal.open(ReopenPath, /*Append=*/true);
  if (!Reopen) {
    Out->P->LastJournalError = Reopen;
    obs::metrics().counter(obs::names::JournalCheckpointFailures).add();
  }
  obs::traceInstant("journal_resume", "events",
                    static_cast<int64_t>(Out->P->EventCount));
  return Out;
}

PartitionedWpp StreamingCompactor::takePartitioned() {
  assert(balanced() && "takePartitioned with open frames");
  // Capture the count before the move empties Wpp.Functions: a reused
  // compactor must keep serving the same function universe.
  size_t FunctionCount = P->Wpp.Functions.size();
  PartitionedWpp Out = std::move(P->Wpp);
  P->resetStream(FunctionCount);
  if (obs::enabled()) {
    // Stage 2 size accounting: bytes_in keeps every duplicate,
    // bytes_out deduplicates.
    PartitionTraceBytes Bytes = partitionTraceBytes(Out);
    obs::MetricsRegistry &M = obs::metrics();
    M.gauge(obs::names::PartitionBytesIn).set(static_cast<int64_t>(Bytes.Owpp));
    M.gauge(obs::names::PartitionBytesOut)
        .set(static_cast<int64_t>(Bytes.Deduped));
    obs::traceCounter(obs::names::PartitionBytesOut,
                      static_cast<int64_t>(Bytes.Deduped));
  }
  return Out;
}

TwppWpp StreamingCompactor::takeCompacted(const ParallelConfig &Config) {
  // Same span hierarchy as the batch compactWpp so the two paths render
  // identically. The partition span only covers finalization here: the
  // per-event work happened online, interleaved with the program run.
  obs::PhaseSpan Span("compact");
  PartitionedWpp Partitioned = [&] {
    obs::PhaseSpan PartitionSpan("partition");
    return takePartitioned();
  }();
  TwppWpp Out = convertToTwpp(applyDbbCompaction(std::move(Partitioned),
                                                 Config),
                              Config);
  maybeVerifyWpp(Out, "streaming");
  return Out;
}
