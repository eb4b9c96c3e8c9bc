//===- wpp/Twpp.cpp - Timestamped WPP representation ----------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Twpp.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "obs/Trace.h"
#include "wpp/DeepSize.h"
#include "wpp/Sizes.h"
#include "wpp/VerifyHooks.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace twpp;

const TimestampSet *TwppTrace::timestampsOf(BlockId Block) const {
  auto It = std::lower_bound(
      Blocks.begin(), Blocks.end(), Block,
      [](const std::pair<BlockId, TimestampSet> &Entry, BlockId Key) {
        return Entry.first < Key;
      });
  if (It == Blocks.end() || It->first != Block)
    return nullptr;
  return &It->second;
}

TwppTrace twpp::twppFromBlockSequence(const std::vector<BlockId> &Sequence) {
  TwppTrace Trace;
  Trace.Length = static_cast<uint32_t>(Sequence.size());
  // Gather the timestamp list of every block; std::map keeps block order.
  std::map<BlockId, std::vector<Timestamp>> Lists;
  for (uint32_t I = 0; I < Sequence.size(); ++I)
    Lists[Sequence[I]].push_back(I + 1);
  Trace.Blocks.reserve(Lists.size());
  for (auto &[Block, List] : Lists)
    Trace.Blocks.emplace_back(Block, TimestampSet::fromSorted(List));
  return Trace;
}

bool twpp::blockSequenceFromTwpp(const TwppTrace &Trace,
                                 std::vector<BlockId> &Sequence) {
  Sequence.assign(Trace.Length, 0);
  std::vector<bool> Seen(Trace.Length, false);
  for (const auto &[Block, Set] : Trace.Blocks) {
    for (const SeriesRun &Run : Set.runs()) {
      for (uint64_t T = Run.Lo; T <= Run.Hi; T += Run.Step) {
        if (T == 0 || T > Trace.Length || Seen[T - 1])
          return false;
        Seen[T - 1] = true;
        Sequence[T - 1] = Block;
      }
    }
  }
  for (bool Filled : Seen)
    if (!Filled)
      return false;
  return true;
}

namespace {

/// Interns values into a pool, deduplicating by hash + equality.
template <typename T, typename HashFn> class PoolInterner {
public:
  explicit PoolInterner(HashFn Hash) : Hash(Hash) {}

  uint32_t intern(std::vector<T> &Pool, T &&Value) {
    uint64_t H = Hash(Value);
    auto Range = Buckets.equal_range(H);
    for (auto It = Range.first; It != Range.second; ++It)
      if (Pool[It->second] == Value)
        return It->second;
    uint32_t Index = static_cast<uint32_t>(Pool.size());
    Pool.push_back(std::move(Value));
    Buckets.emplace(H, Index);
    return Index;
  }

private:
  HashFn Hash;
  std::unordered_multimap<uint64_t, uint32_t> Buckets;
};

} // namespace

DbbWpp twpp::applyDbbCompaction(const PartitionedWpp &Wpp,
                                const ParallelConfig &Config) {
  obs::PhaseSpan Span("dbb");
  DbbWpp Out;
  Out.Dcg = Wpp.Dcg;
  Out.Functions.resize(Wpp.Functions.size());
  // One task per function table: interners are task-local and each task
  // writes only its pre-allocated slot, so any job count produces the
  // same tables as the serial walk.
  parallelFor(Config, Wpp.Functions.size(), [&Wpp, &Out](size_t F) {
    // Leaf span per function table; the function id arg makes a trace
    // show which function each slice compacted.
    obs::PhaseSpan FnSpan("dbb_function", "function",
                          static_cast<int64_t>(F));
    const FunctionTraceTable &In = Wpp.Functions[F];
    DbbFunctionTable &Table = Out.Functions[F];
    Table.CallCount = In.CallCount;
    Table.UseCounts = In.UseCounts;

    PoolInterner<std::vector<BlockId>, uint64_t (*)(const std::vector<BlockId> &)>
        StringInterner(hashBlockSequence);
    PoolInterner<DbbDictionary, uint64_t (*)(const DbbDictionary &)>
        DictInterner(hashDictionary);

    Table.Traces.reserve(In.UniqueTraces.size());
    for (const PathTrace &Trace : In.UniqueTraces) {
      CompactedTrace Compacted = compactWithDbbs(Trace);
      uint32_t StringIdx = StringInterner.intern(
          Table.TraceStrings, std::move(Compacted.Blocks));
      uint32_t DictIdx = DictInterner.intern(Table.Dictionaries,
                                             std::move(Compacted.Dictionary));
      Table.Traces.emplace_back(StringIdx, DictIdx);
    }
    // Per-tag memory accounting: the finished table's heap footprint
    // (dbb.tables live bytes track what this stage keeps alive).
    if (obs::memTrackingEnabled())
      obs::memAlloc(obs::memtags::DbbTables, obs::deepSize(Table));
  });
  if (obs::enabled()) {
    // Stage 3 size accounting: bytes_in is the deduplicated trace pool,
    // bytes_out the dictionary-compacted trace strings (dictionaries
    // themselves are a Table 3 column).
    uint64_t BytesIn = partitionTraceBytes(Wpp).Deduped;
    uint64_t BytesOut = dbbTraceBytes(Out);
    obs::MetricsRegistry &M = obs::metrics();
    M.gauge(obs::names::DbbBytesIn).set(static_cast<int64_t>(BytesIn));
    M.gauge(obs::names::DbbBytesOut).set(static_cast<int64_t>(BytesOut));
    obs::traceCounter(obs::names::DbbBytesOut,
                      static_cast<int64_t>(BytesOut));
  }
  return Out;
}

TwppWpp twpp::convertToTwpp(const DbbWpp &Wpp, const ParallelConfig &Config) {
  obs::PhaseSpan Span("twpp");
  TwppWpp Out;
  Out.Dcg = Wpp.Dcg;
  Out.Functions.resize(Wpp.Functions.size());
  parallelFor(Config, Wpp.Functions.size(), [&Wpp, &Out](size_t F) {
    obs::PhaseSpan FnSpan("twpp_function", "function",
                          static_cast<int64_t>(F));
    const DbbFunctionTable &In = Wpp.Functions[F];
    TwppFunctionTable &Table = Out.Functions[F];
    Table.CallCount = In.CallCount;
    Table.UseCounts = In.UseCounts;
    Table.Traces = In.Traces;
    Table.Dictionaries = In.Dictionaries;
    Table.TraceStrings.reserve(In.TraceStrings.size());
    for (const std::vector<BlockId> &Sequence : In.TraceStrings)
      Table.TraceStrings.push_back(twppFromBlockSequence(Sequence));
    if (obs::memTrackingEnabled())
      obs::memAlloc(obs::memtags::TwppTables, obs::deepSize(Table));
  });
  if (obs::enabled()) {
    // Stage 4+5 size accounting: the trace strings after the
    // timestamped-form conversion.
    uint64_t BytesOut = twppTraceBytes(Out);
    obs::metrics()
        .gauge(obs::names::TwppBytesOut)
        .set(static_cast<int64_t>(BytesOut));
    obs::traceCounter(obs::names::TwppBytesOut,
                      static_cast<int64_t>(BytesOut));
  }
  return Out;
}

bool twpp::twppToDbb(const TwppWpp &Wpp, DbbWpp &Out, FunctionId *Untiled) {
  Out = DbbWpp();
  Out.Dcg = Wpp.Dcg;
  Out.Functions.resize(Wpp.Functions.size());
  for (size_t F = 0; F < Wpp.Functions.size(); ++F) {
    const TwppFunctionTable &In = Wpp.Functions[F];
    DbbFunctionTable &Table = Out.Functions[F];
    Table.CallCount = In.CallCount;
    Table.UseCounts = In.UseCounts;
    Table.Traces = In.Traces;
    Table.Dictionaries = In.Dictionaries;
    Table.TraceStrings.reserve(In.TraceStrings.size());
    for (const TwppTrace &Trace : In.TraceStrings) {
      std::vector<BlockId> Sequence;
      if (!blockSequenceFromTwpp(Trace, Sequence)) {
        if (Untiled)
          *Untiled = static_cast<FunctionId>(F);
        return false;
      }
      Table.TraceStrings.push_back(std::move(Sequence));
    }
  }
  return true;
}

PartitionedWpp twpp::dbbToPartitioned(const DbbWpp &Wpp) {
  PartitionedWpp Out;
  Out.Dcg = Wpp.Dcg;
  Out.Functions.resize(Wpp.Functions.size());
  for (size_t F = 0; F < Wpp.Functions.size(); ++F) {
    const DbbFunctionTable &In = Wpp.Functions[F];
    FunctionTraceTable &Table = Out.Functions[F];
    Table.CallCount = In.CallCount;
    Table.UseCounts = In.UseCounts;
    Table.UniqueTraces.reserve(In.Traces.size());
    for (size_t T = 0; T < In.Traces.size(); ++T) {
      auto [StringIdx, DictIdx] = In.Traces[T];
      CompactedTrace Compacted;
      Compacted.Blocks = In.TraceStrings[StringIdx];
      Compacted.Dictionary = In.Dictionaries[DictIdx];
      PathTrace Expanded = expandDbbs(Compacted);
      Table.UniqueTraces.push_back(std::move(Expanded));
      Table.TotalBlockEvents +=
          Table.UniqueTraces.back().size() * In.UseCounts[T];
    }
  }
  return Out;
}

TwppWpp twpp::compactWpp(const RawTrace &Trace) {
  obs::PhaseSpan Span("compact");
  TwppWpp Out = convertToTwpp(applyDbbCompaction(partitionWpp(Trace)));
  maybeVerifyWpp(Out, "compact");
  return Out;
}

bool twpp::reconstructRawTrace(const TwppWpp &Wpp, RawTrace &Out,
                               FunctionId *Untiled) {
  DbbWpp Dbb;
  if (!twppToDbb(Wpp, Dbb, Untiled)) {
    Out = RawTrace();
    return false;
  }
  Out = reconstructRawTrace(dbbToPartitioned(Dbb));
  return true;
}

RawTrace twpp::reconstructRawTrace(const TwppWpp &Wpp) {
  RawTrace Out;
  reconstructRawTrace(Wpp, Out);
  return Out;
}

bool twpp::expandFunctionTraces(const TwppFunctionTable &Table,
                                FunctionPathTraces &Out) {
  Out = FunctionPathTraces();
  Out.CallCount = Table.CallCount;
  Out.UseCounts = Table.UseCounts;
  Out.Traces.reserve(Table.Traces.size());
  for (auto [StringIdx, DictIdx] : Table.Traces) {
    std::vector<BlockId> Sequence;
    if (!blockSequenceFromTwpp(Table.TraceStrings[StringIdx], Sequence)) {
      Out = FunctionPathTraces();
      return false;
    }
    PathTrace Expanded;
    Expanded.reserve(Sequence.size());
    for (BlockId Head : Sequence)
      appendExpansion(Table.Dictionaries[DictIdx], Head, Expanded);
    Out.Traces.push_back(std::move(Expanded));
  }
  return true;
}

FunctionPathTraces
twpp::expandFunctionTraces(const TwppFunctionTable &Table) {
  FunctionPathTraces Out;
  expandFunctionTraces(Table, Out);
  return Out;
}
