//===- wpp/Archive.cpp - Compacted TWPP on-disk archive -------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Archive.h"

#include "obs/Memory.h"
#include "obs/Metrics.h"
#include "obs/Names.h"
#include "obs/PhaseSpan.h"
#include "obs/Trace.h"
#include "support/Arena.h"
#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "verify/Checks.h"
#include "wpp/Sizes.h"
#include "wpp/VerifyHooks.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

using namespace twpp;

namespace {

constexpr uint32_t ArchiveMagic = 0x54575050; // "TWPP"
constexpr uint32_t ArchiveVersion = 1;        // single-threaded layout
// + section trailer. Version 2 stored one HBEG record per edge and is no
// longer read (docs/FORMATS.md).
constexpr uint32_t ArchiveVersionThreads = 3;
constexpr size_t PrefixSize = 12;       // magic + version + functionCount
constexpr size_t DcgFieldsSize = 16;    // dcgOffset + dcgLength
constexpr size_t HeaderSize = PrefixSize + DcgFieldsSize;
constexpr size_t IndexRowSize = 24;     // offset + length + callCount
constexpr size_t SectionHeadSize = 12;  // tag (fixed32) + length (fixed64)

void encodeSeries(ByteWriter &Writer, const TimestampSet &Set) {
  std::vector<int64_t> Values = Set.encodeSigned();
  Writer.writeVarUint(Values.size());
  for (int64_t Value : Values)
    Writer.writeVarInt(Value);
}

/// Per-thread decode scratch: one flat function table, or one access
/// series. Each decode resets it, so the footprint stays at the largest
/// single decode, a bounded multiple of that block's bytes, while the
/// pooled blocks make every decode after the first allocation-free.
Arena &decodeArena() {
  thread_local Arena Scratch(Arena::DefaultBlockBytes,
                             obs::memtags::ArenaDecode);
  return Scratch;
}

/// Reads one sign-delimited series and hands each run to \p Emit. The one
/// parser of a stored series, for function blocks and ACCS alike.
template <typename EmitFn> bool readSeries(ByteReader &Reader, EmitFn &&Emit) {
  uint64_t Count = Reader.readVarUint();
  if (Reader.hasError() || Count > Reader.remaining() * 10)
    return false;
  return decodeSignedRuns(
             Count, [&Reader] { return Reader.readVarInt(); }, Emit) &&
         Reader.valid();
}

bool decodeSeries(ByteReader &Reader, TimestampSet &Set) {
  Arena &Scratch = decodeArena();
  Scratch.reset();
  ArenaVector<SeriesRun> Runs(Scratch);
  if (!readSeries(Reader,
                  [&Runs](const SeriesRun &Run) { Runs.push_back(Run); }))
    return false;
  Set = TimestampSet::fromDecodedRuns(Runs.data(), Runs.size());
  return true;
}

void encodeDictionary(ByteWriter &Writer, const DbbDictionary &Dict) {
  Writer.writeVarUint(Dict.Chains.size());
  for (const auto &Chain : Dict.Chains) {
    Writer.writeVarUint(Chain.size());
    for (BlockId Block : Chain)
      Writer.writeVarUint(Block);
  }
}

void encodeThreadSection(ByteWriter &Writer, const ConcurrencyInfo &Conc) {
  Writer.writeVarUint(Conc.Threads.size());
  Writer.writeVarUint(Conc.FunctionCount);
  for (const ThreadInfo &T : Conc.Threads) {
    Writer.writeVarUint(T.Id);
    Writer.writeVarUint(T.BlockCount);
  }
}

/// Bytes of \p R as one HBEG record.
uint64_t runRecordBytes(const HbEdgeRun &R) {
  const HbEdge &E = R.First;
  uint64_t Bytes = varintSize(static_cast<uint64_t>(E.EdgeKind)) +
                   varintSize(E.FromThread) + varintSize(E.ToThread) +
                   varintSize(E.FromTime) + varintSize(E.ToTime) +
                   varintSize(R.Count);
  if (R.Count > 1)
    Bytes += varintSize(zigzagEncode(R.IndexStep)) +
             varintSize(zigzagEncode(R.FromStep)) +
             varintSize(zigzagEncode(R.ToStep));
  return Bytes;
}

/// Bytes of \p E as five plain varints: what a run must beat.
uint64_t edgeRecordBytes(const HbEdge &E) {
  return varintSize(static_cast<uint64_t>(E.EdgeKind)) +
         varintSize(E.FromThread) + varintSize(E.FromTime) +
         varintSize(E.ToThread) + varintSize(E.ToTime);
}

/// The runs HBEG stores: \p Edges' runs, except that a run costing more
/// than one byte over its edges as plain varints is split into runs of
/// one. Ordered by first edge index, as the reader places them.
std::vector<HbEdgeRun> runsToStore(const HbEdgeRuns &Edges) {
  std::vector<HbEdgeRun> Out;
  Out.reserve(Edges.runs().size());
  bool Split = false;
  for (const HbEdgeRun &R : Edges.runs()) {
    uint64_t Plain = 0;
    for (uint32_t K = 0; K != R.Count; ++K)
      Plain += edgeRecordBytes(R.at(K));
    if (runRecordBytes(R) <= Plain + 1) {
      Out.push_back(R);
      continue;
    }
    Split = true;
    for (uint32_t K = 0; K != R.Count; ++K)
      Out.push_back({R.at(K), R.indexAt(K), 1, 0, 0, 0});
  }
  if (Split)
    std::sort(Out.begin(), Out.end(),
              [](const HbEdgeRun &A, const HbEdgeRun &B) {
                return A.Index < B.Index;
              });
  return Out;
}

void encodeEdgeSection(ByteWriter &Writer, const ConcurrencyInfo &Conc) {
  std::vector<HbEdgeRun> Runs = runsToStore(Conc.Edges);
  Writer.writeVarUint(Runs.size());
  for (const HbEdgeRun &R : Runs) {
    Writer.writeVarUint(static_cast<uint64_t>(R.First.EdgeKind));
    Writer.writeVarUint(R.First.FromThread);
    Writer.writeVarUint(R.First.ToThread);
    Writer.writeVarUint(R.First.FromTime);
    Writer.writeVarUint(R.First.ToTime);
    Writer.writeVarUint(R.Count);
    if (R.Count > 1) {
      Writer.writeVarInt(R.IndexStep);
      Writer.writeVarInt(R.FromStep);
      Writer.writeVarInt(R.ToStep);
    }
  }
}

void encodeAccessSection(ByteWriter &Writer, const ConcurrencyInfo &Conc) {
  Writer.writeVarUint(Conc.Accesses.size());
  for (const ThreadAccessTable &Table : Conc.Accesses) {
    Writer.writeVarUint(Table.Accesses.size());
    Address Prev = 0;
    for (const AddressAccess &Acc : Table.Accesses) {
      Writer.writeVarUint(Acc.Addr - Prev); // addresses sorted ascending
      Prev = Acc.Addr;
      encodeSeries(Writer, Acc.Reads);
      encodeSeries(Writer, Acc.Writes);
    }
  }
}

bool decodeThreadSection(ByteSpan Bytes, ConcurrencyInfo &Out) {
  ByteReader Reader(Bytes);
  uint64_t ThreadCount = Reader.readVarUint();
  Out.FunctionCount = static_cast<uint32_t>(Reader.readVarUint());
  if (Reader.hasError() || ThreadCount > ConcurrencyInfo::MaxThreads)
    return false;
  Out.Threads.resize(ThreadCount);
  for (ThreadInfo &T : Out.Threads) {
    T.Id = static_cast<ThreadId>(Reader.readVarUint());
    T.BlockCount = Reader.readVarUint();
  }
  return Reader.valid();
}

/// True when \p Time + K * \p Step is a uint32_t time for every K below
/// \p Count (at most HbEdgeRuns::MaxEdges, so the product cannot
/// overflow).
bool stepFits(uint32_t Time, int64_t Step, uint32_t Count) {
  if (Step < -int64_t{UINT32_MAX} || Step > int64_t{UINT32_MAX})
    return false;
  const int64_t Last = Time + int64_t{Count - 1} * Step;
  return Last >= 0 && Last <= int64_t{UINT32_MAX};
}

bool decodeEdgeSection(ByteSpan Bytes, ConcurrencyInfo &Out) {
  ByteReader Reader(Bytes);
  uint64_t RunCount = Reader.readVarUint();
  if (Reader.hasError() || RunCount > Bytes.size())
    return false;
  std::vector<HbEdgeRun> Runs(RunCount);
  for (HbEdgeRun &R : Runs) {
    uint64_t Fields[6];
    for (uint64_t &Field : Fields)
      Field = Reader.readVarUint();
    const auto [Kind, FromThread, ToThread, FromTime, ToTime, Count] = Fields;
    if (Reader.hasError() || Kind > static_cast<uint64_t>(HbEdge::Kind::Join) ||
        std::max({FromThread, ToThread, FromTime, ToTime}) > UINT32_MAX ||
        Count == 0 || Count > HbEdgeRuns::MaxEdges)
      return false;
    R.First = {static_cast<HbEdge::Kind>(Kind),
               static_cast<uint32_t>(FromThread),
               static_cast<uint32_t>(FromTime),
               static_cast<uint32_t>(ToThread), static_cast<uint32_t>(ToTime)};
    R.Count = static_cast<uint32_t>(Count);
    if (R.Count == 1)
      continue;
    const int64_t IndexStep = Reader.readVarInt();
    R.FromStep = Reader.readVarInt();
    R.ToStep = Reader.readVarInt();
    if (Reader.hasError() || IndexStep < 1 || IndexStep > UINT32_MAX ||
        !stepFits(R.First.FromTime, R.FromStep, R.Count) ||
        !stepFits(R.First.ToTime, R.ToStep, R.Count))
      return false;
    R.IndexStep = static_cast<uint32_t>(IndexStep);
  }
  return Reader.valid() && HbEdgeRuns::tile(std::move(Runs), Out.Edges);
}

bool decodeAccessSection(ByteSpan Bytes, ConcurrencyInfo &Out) {
  ByteReader Reader(Bytes);
  uint64_t ThreadCount = Reader.readVarUint();
  if (Reader.hasError() || ThreadCount != Out.Threads.size())
    return false;
  Out.Accesses.resize(ThreadCount);
  for (ThreadAccessTable &Table : Out.Accesses) {
    uint64_t AddrCount = Reader.readVarUint();
    if (Reader.hasError() || AddrCount > Reader.remaining() + 1)
      return false;
    Table.Accesses.resize(AddrCount);
    Address Prev = 0;
    bool First = true;
    for (AddressAccess &Acc : Table.Accesses) {
      uint64_t Delta = Reader.readVarUint();
      if (!First && Delta == 0)
        return false; // addresses must be strictly ascending
      Acc.Addr = Prev + Delta;
      Prev = Acc.Addr;
      First = false;
      if (!decodeSeries(Reader, Acc.Reads) ||
          !decodeSeries(Reader, Acc.Writes))
        return false;
    }
  }
  return Reader.valid();
}

} // namespace

void twpp::releaseArchiveDecodeScratch() { decodeArena().release(); }

std::string twpp::archiveSectionName(uint32_t Tag) {
  return {static_cast<char>(Tag >> 24), static_cast<char>(Tag >> 16),
          static_cast<char>(Tag >> 8), static_cast<char>(Tag)};
}

bool twpp::decodeArchiveSection(uint32_t Tag, ByteSpan Payload,
                                ConcurrencyInfo &Out) {
  switch (Tag) {
  case ArchiveSectionThreads:
    return decodeThreadSection(Payload, Out);
  case ArchiveSectionHbEdges:
    return decodeEdgeSection(Payload, Out);
  case ArchiveSectionAccesses:
    return decodeAccessSection(Payload, Out);
  }
  return false;
}

std::vector<uint8_t>
twpp::encodeTwppFunctionTable(const TwppFunctionTable &Table) {
  ByteWriter Writer;
  Writer.writeVarUint(Table.CallCount);

  Writer.writeVarUint(Table.TraceStrings.size());
  for (const TwppTrace &Trace : Table.TraceStrings) {
    Writer.writeVarUint(Trace.Length);
    Writer.writeVarUint(Trace.Blocks.size());
    BlockId Prev = 0;
    for (const auto &[Block, Set] : Trace.Blocks) {
      Writer.writeVarUint(Block - Prev); // blocks sorted ascending
      Prev = Block;
      encodeSeries(Writer, Set);
    }
  }

  Writer.writeVarUint(Table.Dictionaries.size());
  for (const DbbDictionary &Dict : Table.Dictionaries)
    encodeDictionary(Writer, Dict);

  Writer.writeVarUint(Table.Traces.size());
  for (size_t I = 0; I < Table.Traces.size(); ++I) {
    Writer.writeVarUint(Table.Traces[I].first);
    Writer.writeVarUint(Table.Traces[I].second);
    Writer.writeVarUint(Table.UseCounts[I]);
  }
  return Writer.take();
}

namespace {

/// The one walker of a function block's bytes (encodeTwppFunctionTable's
/// format): decodes the whole block into \p Out's flat arrays in
/// \p Scratch, which it resets first. \returns false on malformed bytes:
/// a count past what the bytes can hold, a series that does not decode
/// (decodeSignedRuns), a trace string whose sets do not add up to its
/// length, a chain shorter than two blocks, a trace naming a string or
/// dictionary that does not exist, or a read past the end. Tiling is not
/// checked here; the expansion checks it.
bool decodeFlatFunctionTable(ByteSpan Bytes, Arena &Scratch,
                             FlatFunctionTable &Out) {
  Scratch.reset();
  Out = FlatFunctionTable();
  ByteReader Reader(Bytes);
  Out.CallCount = Reader.readVarUint();

  uint64_t StringCount = Reader.readVarUint();
  if (Reader.hasError() || StringCount > Bytes.size())
    return false;
  uint32_t *Lengths = Scratch.allocateArray<uint32_t>(StringCount);
  size_t *StringBlocks = Scratch.allocateArray<size_t>(StringCount + 1);
  ArenaVector<BlockId> Blocks(Scratch);
  ArenaVector<size_t> BlockRuns(Scratch);
  ArenaVector<SeriesRun> Runs(Scratch);
  StringBlocks[0] = 0;
  BlockRuns.push_back(0);
  for (size_t S = 0; S != StringCount; ++S) {
    uint32_t Length = static_cast<uint32_t>(Reader.readVarUint());
    uint64_t BlockCount = Reader.readVarUint();
    if (Reader.hasError() || BlockCount > Length ||
        BlockCount > Reader.remaining())
      return false;
    BlockId Block = 0;
    uint64_t TotalTimestamps = 0;
    for (uint64_t K = 0; K != BlockCount; ++K) {
      Block += static_cast<BlockId>(Reader.readVarUint()); // ascending
      Blocks.push_back(Block);
      if (!readSeries(Reader, [&](const SeriesRun &Run) {
            Runs.push_back(Run);
            TotalTimestamps += Run.count();
          }))
        return false;
      BlockRuns.push_back(Runs.size());
    }
    // Every time step 1..Length belongs to exactly one block; reject
    // traces whose declared length the series cannot account for, so
    // later expansion never allocates for a phantom length.
    if (TotalTimestamps != Length)
      return false;
    Lengths[S] = Length;
    StringBlocks[S + 1] = Blocks.size();
  }

  uint64_t DictCount = Reader.readVarUint();
  if (Reader.hasError() || DictCount > Bytes.size())
    return false;
  size_t *DictChains = Scratch.allocateArray<size_t>(DictCount + 1);
  ArenaVector<size_t> ChainStart(Scratch);
  ArenaVector<BlockId> ChainPool(Scratch);
  DictChains[0] = 0;
  ChainStart.push_back(0);
  for (size_t D = 0; D != DictCount; ++D) {
    uint64_t ChainCount = Reader.readVarUint();
    if (Reader.hasError() || ChainCount > Reader.remaining())
      return false;
    for (uint64_t C = 0; C != ChainCount; ++C) {
      uint64_t Length = Reader.readVarUint();
      if (Reader.hasError() || Length < 2 || Length > Reader.remaining() + 2)
        return false;
      for (uint64_t I = 0; I != Length; ++I)
        ChainPool.push_back(static_cast<BlockId>(Reader.readVarUint()));
      ChainStart.push_back(ChainPool.size());
    }
    if (!Reader.valid())
      return false;
    DictChains[D + 1] = ChainStart.size() - 1;
  }

  uint64_t TraceCount = Reader.readVarUint();
  if (Reader.hasError() || TraceCount > Bytes.size())
    return false;
  auto *Traces =
      Scratch.allocateArray<std::pair<uint32_t, uint32_t>>(TraceCount);
  uint64_t *UseCounts = Scratch.allocateArray<uint64_t>(TraceCount);
  for (size_t I = 0; I != TraceCount; ++I) {
    uint64_t StringIdx = Reader.readVarUint();
    uint64_t DictIdx = Reader.readVarUint();
    UseCounts[I] = Reader.readVarUint();
    if (StringIdx >= StringCount || DictIdx >= DictCount)
      return false;
    Traces[I] = {static_cast<uint32_t>(StringIdx),
                 static_cast<uint32_t>(DictIdx)};
  }
  if (!Reader.valid())
    return false;

  Out.StringCount = StringCount;
  Out.Lengths = Lengths;
  Out.StringBlocks = StringBlocks;
  Out.Blocks = Blocks.data();
  Out.BlockRuns = BlockRuns.data();
  Out.Runs = Runs.data();
  Out.DictCount = DictCount;
  Out.DictChains = DictChains;
  Out.ChainStart = ChainStart.data();
  Out.ChainPool = ChainPool.data();
  Out.TraceCount = TraceCount;
  Out.Traces = Traces;
  Out.UseCounts = UseCounts;
  return true;
}

} // namespace

bool twpp::decodeTwppFunctionTable(ByteSpan Bytes, TwppFunctionTable &Table) {
  Table = TwppFunctionTable();
  FlatFunctionTable Flat;
  if (!decodeFlatFunctionTable(Bytes, decodeArena(), Flat))
    return false;
  Table.CallCount = Flat.CallCount;
  Table.TraceStrings.resize(Flat.StringCount);
  for (size_t S = 0; S != Flat.StringCount; ++S) {
    TwppTrace &Trace = Table.TraceStrings[S];
    Trace.Length = Flat.Lengths[S];
    Trace.Blocks.reserve(Flat.StringBlocks[S + 1] - Flat.StringBlocks[S]);
    for (size_t K = Flat.StringBlocks[S]; K != Flat.StringBlocks[S + 1]; ++K)
      Trace.Blocks.emplace_back(
          Flat.Blocks[K],
          TimestampSet::fromDecodedRuns(Flat.Runs + Flat.BlockRuns[K],
                                        Flat.BlockRuns[K + 1] -
                                            Flat.BlockRuns[K]));
  }
  Table.Dictionaries.resize(Flat.DictCount);
  for (size_t D = 0; D != Flat.DictCount; ++D) {
    std::vector<std::vector<BlockId>> &Chains = Table.Dictionaries[D].Chains;
    Chains.reserve(Flat.DictChains[D + 1] - Flat.DictChains[D]);
    for (size_t C = Flat.DictChains[D]; C != Flat.DictChains[D + 1]; ++C)
      Chains.emplace_back(Flat.ChainPool + Flat.ChainStart[C],
                          Flat.ChainPool + Flat.ChainStart[C + 1]);
  }
  Table.Traces.assign(Flat.Traces, Flat.Traces + Flat.TraceCount);
  Table.UseCounts.assign(Flat.UseCounts, Flat.UseCounts + Flat.TraceCount);
  if (obs::memTrackingEnabled()) {
    // Container overheads of the decoded table; the series payloads were
    // already recorded by TimestampSet::fromDecodedRuns. Kept as an
    // independent tally of obs::deepSize so the twpp-mem-reconcile check
    // catches the two drifting apart.
    uint64_t Bytes = Table.TraceStrings.size() * sizeof(TwppTrace);
    for (const TwppTrace &Trace : Table.TraceStrings)
      Bytes += Trace.Blocks.size() * sizeof(std::pair<BlockId, TimestampSet>);
    Bytes += Table.Dictionaries.size() * sizeof(DbbDictionary);
    for (const DbbDictionary &Dict : Table.Dictionaries) {
      Bytes += Dict.Chains.size() * sizeof(std::vector<BlockId>);
      for (const std::vector<BlockId> &Chain : Dict.Chains)
        Bytes += Chain.size() * sizeof(BlockId);
    }
    Bytes += Table.Traces.size() * sizeof(std::pair<uint32_t, uint32_t>);
    Bytes += Table.UseCounts.size() * sizeof(uint64_t);
    obs::memAllocCurrent(Bytes);
  }
  return true;
}

namespace {

/// Shared layout for both versions: \p Conc == nullptr emits the
/// historical version-1 bytes; otherwise version 3 with the THRD/HBEG/
/// ACCS trailer after the DCG.
std::vector<uint8_t> encodeArchiveImpl(const TwppWpp &Wpp,
                                       const ParallelConfig &Config,
                                       const ConcurrencyInfo *Conc) {
  obs::PhaseSpan Span("archive_encode");
  uint32_t FunctionCount = static_cast<uint32_t>(Wpp.Functions.size());

  // Encode every function block concurrently; the layout below consumes
  // them in the stable call-count order, so the archive bytes do not
  // depend on the job count.
  std::vector<std::vector<uint8_t>> Blocks(FunctionCount);
  parallelFor(Config, FunctionCount, [&Wpp, &Blocks](size_t F) {
    obs::PhaseSpan FnSpan("encode_function", "function",
                          static_cast<int64_t>(F));
    Blocks[F] = encodeTwppFunctionTable(Wpp.Functions[F]);
    obs::memAlloc(obs::memtags::ArchiveEncode, Blocks[F].size());
  });

  // Most frequently called functions are stored first (paper Section 3).
  std::vector<uint32_t> Order(FunctionCount);
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&Wpp](uint32_t A, uint32_t B) {
    return Wpp.Functions[A].CallCount > Wpp.Functions[B].CallCount;
  });

  ByteWriter Writer;
  Writer.writeFixed32(ArchiveMagic);
  Writer.writeFixed32(Conc ? ArchiveVersionThreads : ArchiveVersion);
  Writer.writeFixed32(FunctionCount);
  size_t DcgFieldsAt = Writer.size();
  Writer.writeFixed64(0); // dcgOffset, patched below
  Writer.writeFixed64(0); // dcgLength, patched below
  size_t IndexAt = Writer.size();
  for (uint32_t F = 0; F != FunctionCount; ++F) {
    (void)F;
    Writer.writeFixed64(0);
    Writer.writeFixed64(0);
    Writer.writeFixed64(0);
  }

  std::vector<std::pair<uint64_t, uint64_t>> Extents(FunctionCount);
  for (uint32_t F : Order) {
    Extents[F] = {Writer.size(), Blocks[F].size()};
    Writer.writeBytes(Blocks[F].data(), Blocks[F].size());
    obs::memFree(obs::memtags::ArchiveEncode, Blocks[F].size());
  }

  std::vector<uint8_t> Dcg = lzwCompress(encodeDcg(Wpp.Dcg));
  Writer.patchFixed64(DcgFieldsAt, Writer.size());
  Writer.patchFixed64(DcgFieldsAt + 8, Dcg.size());
  Writer.writeBytes(Dcg.data(), Dcg.size());

  if (Conc) {
    auto WriteSection = [&Writer](uint32_t Tag, auto &&Encode) {
      Writer.writeFixed32(Tag);
      size_t LengthAt = Writer.size();
      Writer.writeFixed64(0);
      size_t PayloadAt = Writer.size();
      Encode();
      Writer.patchFixed64(LengthAt, Writer.size() - PayloadAt);
    };
    WriteSection(ArchiveSectionThreads,
                 [&] { encodeThreadSection(Writer, *Conc); });
    WriteSection(ArchiveSectionHbEdges,
                 [&] { encodeEdgeSection(Writer, *Conc); });
    WriteSection(ArchiveSectionAccesses,
                 [&] { encodeAccessSection(Writer, *Conc); });
  }

  for (uint32_t F = 0; F != FunctionCount; ++F) {
    size_t Row = IndexAt + static_cast<size_t>(F) * IndexRowSize;
    Writer.patchFixed64(Row, Extents[F].first);
    Writer.patchFixed64(Row + 8, Extents[F].second);
    Writer.patchFixed64(Row + 16, Wpp.Functions[F].CallCount);
  }
  std::vector<uint8_t> Out = Writer.take();
  // The stitched buffer is the encode path's high-water mark; alloc+free
  // so archive.encode records the peak without holding live bytes.
  obs::memAlloc(obs::memtags::ArchiveEncode, Out.size());
  obs::memFree(obs::memtags::ArchiveEncode, Out.size());
  maybeVerifyArchiveBytes(Out, "archive_encode");
  if (obs::enabled())
    obs::metrics()
        .gauge(obs::names::ArchiveBytes)
        .set(static_cast<int64_t>(Out.size()));
  obs::traceInstant("archive_encoded", "bytes",
                    static_cast<int64_t>(Out.size()));
  return Out;
}

/// Why no reader would accept \p Conc's thread trailer (the HBEG or THRD
/// section past its limit), or empty when it fits.
std::string trailerOverLimit(const ConcurrencyInfo &Conc) {
  if (Conc.Edges.size() > HbEdgeRuns::MaxEdges)
    return std::to_string(Conc.Edges.size()) +
           " happens-before edges exceed the archive's limit of " +
           std::to_string(HbEdgeRuns::MaxEdges);
  if (Conc.Threads.size() > ConcurrencyInfo::MaxThreads)
    return std::to_string(Conc.Threads.size()) +
           " threads exceed the archive's limit of " +
           std::to_string(ConcurrencyInfo::MaxThreads);
  return {};
}

} // namespace

std::vector<uint8_t> twpp::encodeArchive(const TwppWpp &Wpp,
                                         const ParallelConfig &Config) {
  return encodeArchiveImpl(Wpp, Config, nullptr);
}

std::vector<uint8_t>
twpp::encodeConcurrentArchive(const ConcurrentWpp &Wpp) {
  if (!trailerOverLimit(Wpp.Conc).empty())
    return {};
  return encodeArchiveImpl(Wpp.Body, ParallelConfig{}, &Wpp.Conc);
}

bool twpp::writeArchiveFile(const std::string &Path, const TwppWpp &Wpp,
                            const ParallelConfig &Config, IoError *Err) {
  IoError Result = writeFileBytesAtomic(Path, encodeArchive(Wpp, Config));
  if (Err)
    *Err = Result;
  return Result.ok();
}

bool twpp::writeConcurrentArchiveFile(const std::string &Path,
                                      const ConcurrentWpp &Wpp,
                                      IoError *Err) {
  IoError Result;
  const std::string OverLimit = trailerOverLimit(Wpp.Conc);
  if (!OverLimit.empty())
    Result = {IoStatus::WriteFailed, 0, Path + ": " + OverLimit};
  else
    Result = writeFileBytesAtomic(Path, encodeConcurrentArchive(Wpp));
  if (Err)
    *Err = Result;
  return Result.ok();
}

bool twpp::decodeArchiveLayout(ByteSpan File, ArchiveLayout &Out,
                               uint32_t MaxVersion) {
  using Part = ArchiveLayout::Part;
  Out = ArchiveLayout();
  auto Defect = [&Out](Part Where, const char *CheckId, std::string Message,
                       std::string Location, uint64_t ByteOffset) {
    Out.Defects.push_back({Where,
                           {CheckId, verify::Severity::Error,
                            std::move(Message), std::move(Location),
                            ByteOffset}});
    return false;
  };
  const uint64_t Size = File.size();
  if (Size < HeaderSize)
    return Defect(Part::Header, verify::checks::ArchiveHeader,
                  "file of " + std::to_string(Size) +
                      " bytes is smaller than the fixed header (" +
                      std::to_string(HeaderSize) + " bytes)",
                  "header", 0);
  ByteReader Reader(File.subspan(0, HeaderSize));
  uint32_t Magic = Reader.readFixed32();
  uint32_t Version = Reader.readFixed32();
  uint32_t FunctionCount = Reader.readFixed32();
  uint64_t DcgOffset = Reader.readFixed64();
  uint64_t DcgLength = Reader.readFixed64();
  if (Magic != ArchiveMagic)
    return Defect(Part::Header, verify::checks::ArchiveHeader,
                  "bad magic (not a TWPP archive)", "header", 0);
  if ((Version != ArchiveVersion && Version != ArchiveVersionThreads) ||
      Version > MaxVersion)
    return Defect(Part::Header, verify::checks::ArchiveHeader,
                  "unsupported archive version " + std::to_string(Version),
                  "header", 4);
  Out.Version = Version;
  Out.FunctionCount = FunctionCount;
  Out.DcgOffset = DcgOffset;
  Out.DcgLength = DcgLength;
  Out.IndexEnd = HeaderSize + uint64_t(FunctionCount) * IndexRowSize;

  // A corrupt count must not drive the allocation below: rows beyond what
  // the file physically holds are clamped away.
  const uint64_t MaxRows = (Size - HeaderSize) / IndexRowSize;
  if (FunctionCount > MaxRows)
    Defect(Part::FunctionCount, verify::checks::ArchiveHeader,
           "function count " + std::to_string(FunctionCount) +
               " implies an index larger than the file",
           "header", 8);
  Out.DcgInBounds = File.covers(DcgOffset, DcgLength);
  if (!Out.DcgInBounds)
    Defect(Part::DcgExtent, verify::checks::ArchiveHeader,
           "DCG extent (offset " + std::to_string(DcgOffset) + ", length " +
               std::to_string(DcgLength) + ") runs past end of file (" +
               std::to_string(Size) + " bytes)",
           "dcg extent", PrefixSize);

  Out.Rows.resize(std::min<uint64_t>(FunctionCount, MaxRows));
  ByteReader IndexReader(
      File.subspan(HeaderSize, Out.Rows.size() * IndexRowSize));
  for (size_t F = 0; F != Out.Rows.size(); ++F) {
    ArchiveLayout::IndexRow &Row = Out.Rows[F];
    Row.At = HeaderSize + F * IndexRowSize;
    Row.Offset = IndexReader.readFixed64();
    Row.Length = IndexReader.readFixed64();
    Row.CallCount = IndexReader.readFixed64();
    Row.InBounds = File.covers(Row.Offset, Row.Length);
    if (!Row.InBounds)
      Defect(Part::IndexRow, verify::checks::ArchiveIndexBounds,
             "block extent (offset " + std::to_string(Row.Offset) +
                 ", length " + std::to_string(Row.Length) +
                 ") runs past end of file",
             "index row " + std::to_string(F), Row.At);
  }

  // Version 3: walk the section trailer between the DCG and end of file.
  // Unknown tags are a hard error — a reader that does not understand a
  // section cannot claim to have read the archive (this is how the
  // thread trailer degrades loudly instead of being silently dropped).
  if (Version != ArchiveVersionThreads || !Out.DcgInBounds)
    return Out.Defects.empty();
  const uint64_t TrailerAt = DcgOffset + DcgLength;
  for (uint64_t Pos = TrailerAt; Pos < Size;) {
    if (Size - Pos < SectionHeadSize)
      return Defect(Part::Sections, verify::checks::ArchiveSection,
                    "truncated section record at offset " +
                        std::to_string(Pos),
                    "section directory", Pos);
    ByteReader Head(File.subspan(Pos, SectionHeadSize));
    ArchiveLayout::Section Sec;
    Sec.Tag = Head.readFixed32();
    Sec.Length = Head.readFixed64();
    Sec.Offset = Pos + SectionHeadSize;
    if (Sec.Tag != ArchiveSectionThreads && Sec.Tag != ArchiveSectionHbEdges &&
        Sec.Tag != ArchiveSectionAccesses) {
      char Tag[9];
      std::snprintf(Tag, sizeof(Tag), "%08x", Sec.Tag);
      return Defect(Part::Sections, verify::checks::ArchiveSection,
                    "unknown archive section tag 0x" + std::string(Tag),
                    "section directory", Pos);
    }
    if (Sec.Length > Size - Sec.Offset)
      return Defect(Part::Sections, verify::checks::ArchiveSection,
                    "section payload runs past end of file",
                    "section directory", Pos);
    if (Out.findSection(Sec.Tag))
      return Defect(Part::Sections, verify::checks::ArchiveSection,
                    "duplicate archive section tag", "section directory",
                    Pos);
    Out.Sections.push_back(Sec);
    Pos = Sec.Offset + Sec.Length;
  }
  Out.TrailerIntact = true;
  if (!Out.findSection(ArchiveSectionThreads))
    Defect(Part::Sections, verify::checks::ArchiveSection,
           "version 3 archive is missing the " +
               archiveSectionName(ArchiveSectionThreads) + " section",
           "section directory", TrailerAt);
  return Out.Defects.empty();
}

bool ArchiveReader::fail(std::string CheckId, std::string Message,
                         std::string Section, uint64_t ByteOffset) const {
  LastError.CheckId = std::move(CheckId);
  LastError.Sev = verify::Severity::Error;
  LastError.Message = std::move(Message);
  LastError.Location = std::move(Section);
  LastError.ByteOffset = ByteOffset;
  return false;
}

verify::Diagnostic twpp::archiveReadFailure(const IoError &Read) {
  verify::Diagnostic D;
  D.CheckId = verify::checks::ArchiveHeader;
  D.Sev = verify::Severity::Error;
  D.Message = "cannot read the archive: " + Read.message();
  D.Location = "header";
  D.ByteOffset = 0;
  return D;
}

bool ArchiveReader::open(const std::string &Path) {
  obs::PhaseSpan Span("archive_open");
  static obs::Counter &IndexReads =
      obs::metrics().counter(obs::names::ArchiveIndexReads);
  IndexReads.add();
  Map.unmap();
  Buffer = {};
  Layout = ArchiveLayout();
  if (MappedFile::available() && Map.map(Path)) {
    File = Map.span();
  } else {
    // Graceful degradation: any mmap failure (platform, fault injection,
    // IO) becomes one whole-file read, identical in everything but speed.
    static obs::Counter &Fallbacks =
        obs::metrics().counter(obs::names::ArchiveMmapFallbacks);
    Fallbacks.add();
    IoError Read = readFileBytes(Path, Buffer);
    File = ByteSpan(Buffer);
    if (!Read) {
      LastError = archiveReadFailure(Read);
      return false;
    }
  }
  if (decodeArchiveLayout(File, Layout))
    return true;
  LastError = Layout.Defects.front().Diag;
  Layout = ArchiveLayout();
  return false;
}

bool ArchiveReader::readConcurrency(ConcurrencyInfo &Out) const {
  Out = ConcurrencyInfo();
  const ArchiveLayout::Section *Thrd =
      Layout.findSection(ArchiveSectionThreads);
  const ArchiveLayout::Section *Hbeg =
      Layout.findSection(ArchiveSectionHbEdges);
  const ArchiveLayout::Section *Accs =
      Layout.findSection(ArchiveSectionAccesses);
  if (!Thrd || !Hbeg || !Accs)
    return fail(verify::checks::ArchiveSection,
                "archive has no thread-aware section trailer", "sections",
                verify::NoByteOffset);
  obs::PhaseSpan Span("archive_read_concurrency");
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  // THRD first: the access decoder checks its thread count against it.
  for (const ArchiveLayout::Section *Sec : {Thrd, Hbeg, Accs})
    if (!decodeArchiveSection(Sec->Tag,
                              File.subspan(Sec->Offset, Sec->Length), Out))
      return fail(verify::checks::ArchiveSection,
                  archiveSectionName(Sec->Tag) + " section does not decode",
                  archiveSectionName(Sec->Tag) + " section", Sec->Offset);
  return true;
}

bool ArchiveReader::readAllConcurrent(ConcurrentWpp &Out) const {
  Out = ConcurrentWpp();
  if (!readConcurrency(Out.Conc))
    return false;
  return readAll(Out.Body);
}

bool ArchiveReader::functionBlock(FunctionId Function, ByteSpan &Block) const {
  if (Function >= Layout.Rows.size())
    return fail(verify::checks::ArchiveIndexBounds,
                "function " + std::to_string(Function) +
                    " not in the archive (index holds " +
                    std::to_string(Layout.Rows.size()) + " rows)",
                "index", verify::NoByteOffset);
  const ArchiveLayout::IndexRow &Row = Layout.Rows[Function];
  Block = File.subspan(Row.Offset, Row.Length);
  if (obs::enabled()) {
    // The Table 4 access-time story: one index row + one block per query.
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &BlockReads =
        M.counter(obs::names::ArchiveBlockReads);
    static obs::Counter &BytesRead =
        M.counter(obs::names::ArchiveBlockBytesRead);
    BlockReads.add();
    BytesRead.add(Block.size());
  }
  return true;
}

bool ArchiveReader::failBlock(const char *CheckId, const char *Message,
                              FunctionId Function) const {
  return fail(CheckId, Message,
              "function " + std::to_string(Function) + " block",
              Layout.Rows[Function].Offset);
}

bool ArchiveReader::extractFunction(FunctionId Function,
                                    TwppFunctionTable &Table) const {
  ByteSpan Block;
  if (!functionBlock(Function, Block))
    return false;
  obs::PhaseSpan Span("archive_extract", "function",
                      static_cast<int64_t>(Function));
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  if (!decodeTwppFunctionTable(Block, Table))
    return failBlock(verify::checks::ArchiveBlockDecode,
                     "function block does not decode", Function);
  return true;
}

bool ArchiveReader::extractFunctionPathTraces(FunctionId Function,
                                              FunctionPathTraces &Out) const {
  Out = FunctionPathTraces();
  ByteSpan Block;
  if (!functionBlock(Function, Block))
    return false;
  obs::PhaseSpan Span("archive_extract", "function",
                      static_cast<int64_t>(Function));
  // The whole block decodes before any trace is tiled, so a block that
  // does not decode fails as such wherever its first untiled trace is.
  FlatFunctionTable Flat;
  if (!decodeFlatFunctionTable(Block, decodeArena(), Flat))
    return failBlock(verify::checks::ArchiveBlockDecode,
                     "function block does not decode", Function);
  if (!expandFunctionTraces(Flat, Out))
    return failBlock(verify::checks::ArchiveTracePartition,
                     "timestamp sets do not tile 1..Length of a trace",
                     Function);
  return true;
}

bool ArchiveReader::readDcg(DynamicCallGraph &Dcg) const {
  obs::PhaseSpan Span("archive_read_dcg");
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  std::vector<uint8_t> Raw;
  if (!lzwDecompress(File.subspan(Layout.DcgOffset, Layout.DcgLength), Raw))
    return fail(verify::checks::ArchiveDcgDecode,
                "DCG does not LZW-decompress", "dcg", Layout.DcgOffset);
  if (!decodeDcg(Raw, Dcg))
    return fail(verify::checks::ArchiveDcgDecode,
                "decompressed DCG does not decode as a call graph", "dcg",
                Layout.DcgOffset);
  return true;
}

bool ArchiveReader::readAll(TwppWpp &Wpp) const {
  obs::MemScope MemSpan(obs::memtags::ArchiveDecode,
                        obs::MemScope::Nest::IfUnscoped);
  Wpp = TwppWpp();
  if (!readDcg(Wpp.Dcg))
    return false;
  Wpp.Functions.resize(Layout.Rows.size());
  obs::memAllocCurrent(Layout.Rows.size() * sizeof(TwppFunctionTable));
  for (FunctionId F = 0; F != Layout.Rows.size(); ++F)
    if (!extractFunction(F, Wpp.Functions[F]))
      return false;
  return true;
}
