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
#include "wpp/DenseIndex.h"
#include "wpp/Sizes.h"
#include "wpp/VerifyHooks.h"

#include <algorithm>
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
  DenseIndex Scratch;
  return twppFromBlockSequence(Sequence, Scratch);
}

TwppTrace twpp::twppFromBlockSequence(const std::vector<BlockId> &Sequence,
                                      DenseIndex &D) {
  TwppTrace Trace;
  Trace.Length = static_cast<uint32_t>(Sequence.size());
  D.build(Sequence.data(), Sequence.size(), /*WithEdges=*/false);
  D.bucketPositions();
  Trace.Blocks.reserve(D.size());
  const Timestamp *Positions = D.Positions.data();
  for (uint32_t B : D.Ascending)
    Trace.Blocks.emplace_back(
        D.Blocks[B], TimestampSet::fromSorted(Positions + D.Starts[B],
                                              Positions + D.Starts[B + 1]));
  return Trace;
}

namespace {

/// What one block of a trace string expands to: its chain body, or the
/// block id itself.
struct Expansion {
  const BlockId *Body;
  uint32_t Length;
};

/// An empty slot of scatterBlocks.
constexpr uint32_t NoBlock = UINT32_MAX;

/// The runs of one timestamp set, as a range.
struct RunRange {
  const SeriesRun *First;
  const SeriesRun *Last;
  const SeriesRun *begin() const { return First; }
  const SeriesRun *end() const { return Last; }
};

/// A trace string and a dictionary as the one-pass expansion reads them.
/// The decoded table and the flat block decode each provide both.
struct TableString {
  const TwppTrace &Trace;
  uint32_t length() const { return Trace.Length; }
  size_t blockCount() const { return Trace.Blocks.size(); }
  const BlockId &block(size_t K) const { return Trace.Blocks[K].first; }
  RunRange runs(size_t K) const {
    const std::vector<SeriesRun> &Runs = Trace.Blocks[K].second.runs();
    return {Runs.data(), Runs.data() + Runs.size()};
  }
};

struct TableDict {
  const DbbDictionary &Dict;
  size_t chainCount() const { return Dict.Chains.size(); }
  BlockId head(size_t C) const { return Dict.Chains[C].front(); }
  Expansion chain(size_t C) const {
    return {Dict.Chains[C].data(),
            static_cast<uint32_t>(Dict.Chains[C].size())};
  }
};

struct FlatString {
  const FlatFunctionTable &Table;
  size_t String;
  uint32_t length() const { return Table.Lengths[String]; }
  size_t blockCount() const {
    return Table.StringBlocks[String + 1] - Table.StringBlocks[String];
  }
  const BlockId &block(size_t K) const {
    return Table.Blocks[Table.StringBlocks[String] + K];
  }
  RunRange runs(size_t K) const {
    const size_t *At = Table.BlockRuns + Table.StringBlocks[String] + K;
    return {Table.Runs + At[0], Table.Runs + At[1]};
  }
};

struct FlatDict {
  const FlatFunctionTable &Table;
  size_t Dict;
  size_t chainCount() const {
    return Table.DictChains[Dict + 1] - Table.DictChains[Dict];
  }
  BlockId head(size_t C) const { return *chain(C).Body; }
  Expansion chain(size_t C) const {
    const size_t *At = Table.ChainStart + Table.DictChains[Dict] + C;
    return {Table.ChainPool + At[0], static_cast<uint32_t>(At[1] - At[0])};
  }
};

/// Gives each block of \p S its expansion under \p D in \p Out, found by
/// findChain's binary search over the chain heads, once per block.
template <typename StringT, typename DictT>
void resolveExpansions(const StringT &S, const DictT &D, Expansion *Out) {
  const size_t Heads = D.chainCount();
  for (size_t K = 0; K != S.blockCount(); ++K) {
    const BlockId &Block = S.block(K);
    size_t C = lowerBoundHead(Heads, Block,
                              [&D](size_t I) { return D.head(I); });
    Out[K] = C < Heads && D.head(C) == Block ? D.chain(C)
                                             : Expansion{&Block, 1};
  }
}

/// Writes the index of each block of \p S into Slots[T - 1] for every
/// timestamp T of its set, and calls \p Taken(K, N) with the N slots block
/// K took. \returns false when the sets do not tile 1..Length: a
/// timestamp that is 0, past Length or already taken, or a slot left
/// empty.
template <typename StringT, typename TakenFn>
bool scatterBlocks(const StringT &S, uint32_t *Slots, TakenFn &&Taken) {
  const uint64_t Length = S.length();
  std::fill_n(Slots, Length, NoBlock);
  uint64_t Filled = 0;
  for (size_t K = 0; K != S.blockCount(); ++K) {
    uint64_t Count = 0;
    for (const SeriesRun &Run : S.runs(K)) {
      for (uint64_t T = Run.Lo; T <= Run.Hi; T += Run.Step) {
        if (T == 0 || T > Length || Slots[T - 1] != NoBlock)
          return false;
        Slots[T - 1] = static_cast<uint32_t>(K);
        ++Count;
      }
    }
    Taken(K, Count);
    Filled += Count;
  }
  // No slot was written twice, so Length writes leave none empty.
  return Filled == Length;
}

/// The one-pass expansion of expandPathTrace, over scratch arrays of
/// S.length() slots and S.blockCount() expansions.
template <typename StringT, typename DictT>
bool expandWith(const StringT &S, const DictT &D, uint32_t *Slots,
                Expansion *Expansions, PathTrace &Out) {
  resolveExpansions(S, D, Expansions);
  uint64_t Total = 0;
  if (!scatterBlocks(S, Slots, [&](size_t K, uint64_t Count) {
        Total += Count * Expansions[K].Length;
      }))
    return false;
  Out.resize(Total);
  BlockId *Into = Out.data();
  for (uint32_t T = 0; T != S.length(); ++T) {
    const Expansion &E = Expansions[Slots[T]];
    Into = std::copy_n(E.Body, E.Length, Into);
  }
  return true;
}

} // namespace

bool twpp::blockSequenceFromTwpp(const TwppTrace &Trace,
                                 std::vector<BlockId> &Sequence) {
  // The slots are the sequence itself: block indices first, ids after.
  Sequence.resize(Trace.Length);
  if (!scatterBlocks(TableString{Trace}, Sequence.data(),
                     [](size_t, uint64_t) {})) {
    Sequence.clear();
    return false;
  }
  for (BlockId &Slot : Sequence)
    Slot = Trace.Blocks[Slot].first;
  return true;
}

bool twpp::expandPathTrace(const TwppTrace &String, const DbbDictionary &Dict,
                           PathTrace &Out) {
  std::vector<uint32_t> Slots(String.Length);
  std::vector<Expansion> Expansions(String.Blocks.size());
  return expandWith(TableString{String}, TableDict{Dict}, Slots.data(),
                    Expansions.data(), Out);
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
    DenseIndex Scratch;
    for (const PathTrace &Trace : In.UniqueTraces) {
      CompactedTrace Compacted = compactWithDbbs(Trace, Scratch);
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
    DenseIndex Scratch;
    for (const std::vector<BlockId> &Sequence : In.TraceStrings)
      Table.TraceStrings.push_back(twppFromBlockSequence(Sequence, Scratch));
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
  Out.Traces.resize(Table.Traces.size());
  for (size_t I = 0; I != Table.Traces.size(); ++I) {
    auto [StringIdx, DictIdx] = Table.Traces[I];
    if (!expandPathTrace(Table.TraceStrings[StringIdx],
                         Table.Dictionaries[DictIdx], Out.Traces[I])) {
      Out = FunctionPathTraces();
      return false;
    }
  }
  Out.CallCount = Table.CallCount;
  Out.UseCounts = Table.UseCounts;
  return true;
}

FunctionPathTraces
twpp::expandFunctionTraces(const TwppFunctionTable &Table) {
  FunctionPathTraces Out;
  expandFunctionTraces(Table, Out);
  return Out;
}

bool twpp::expandFunctionTraces(const FlatFunctionTable &Table,
                                FunctionPathTraces &Out) {
  Out = FunctionPathTraces();
  size_t MaxLength = 0, MaxBlocks = 0;
  for (size_t I = 0; I != Table.TraceCount; ++I) {
    FlatString String{Table, Table.Traces[I].first};
    MaxLength = std::max<size_t>(MaxLength, String.length());
    MaxBlocks = std::max(MaxBlocks, String.blockCount());
  }
  // Heap, not decode scratch: the slots grow with the expanded length,
  // which the pooled arena would otherwise keep for the thread's life.
  std::vector<uint32_t> Slots(MaxLength);
  std::vector<Expansion> Expansions(MaxBlocks);
  Out.Traces.resize(Table.TraceCount);
  for (size_t I = 0; I != Table.TraceCount; ++I) {
    auto [StringIdx, DictIdx] = Table.Traces[I];
    if (!expandWith(FlatString{Table, StringIdx}, FlatDict{Table, DictIdx},
                    Slots.data(), Expansions.data(), Out.Traces[I])) {
      Out = FunctionPathTraces();
      return false;
    }
  }
  Out.CallCount = Table.CallCount;
  Out.UseCounts.assign(Table.UseCounts, Table.UseCounts + Table.TraceCount);
  return true;
}
