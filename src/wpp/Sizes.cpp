//===- wpp/Sizes.cpp - Size accounting for the compaction study -----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Sizes.h"

#include "support/ByteStream.h"
#include "support/LZW.h"

using namespace twpp;

uint64_t twpp::signedVarintSize(int64_t Value) {
  return varintSize(zigzagEncode(Value));
}

uint64_t twpp::pathTraceBytes(const PathTrace &Trace) {
  uint64_t Bytes = varintSize(Trace.size());
  for (BlockId Block : Trace)
    Bytes += varintSize(Block);
  return Bytes;
}

uint64_t twpp::dictionaryBytes(const DbbDictionary &Dict) {
  uint64_t Bytes = varintSize(Dict.Chains.size());
  for (const auto &Chain : Dict.Chains) {
    Bytes += varintSize(Chain.size());
    for (BlockId Block : Chain)
      Bytes += varintSize(Block);
  }
  return Bytes;
}

uint64_t twpp::twppTraceBytes(const TwppTrace &Trace) {
  uint64_t Bytes = varintSize(Trace.Length) + varintSize(Trace.Blocks.size());
  for (const auto &[Block, Set] : Trace.Blocks) {
    Bytes += varintSize(Block);
    std::vector<int64_t> Values = Set.encodeSigned();
    Bytes += varintSize(Values.size());
    for (int64_t Value : Values)
      Bytes += signedVarintSize(Value);
  }
  return Bytes;
}

PartitionTraceBytes twpp::partitionTraceBytes(const PartitionedWpp &Wpp) {
  PartitionTraceBytes Sizes;
  for (const FunctionTraceTable &Table : Wpp.Functions)
    for (size_t T = 0; T < Table.UniqueTraces.size(); ++T) {
      uint64_t Bytes = pathTraceBytes(Table.UniqueTraces[T]);
      Sizes.Owpp += Bytes * Table.UseCounts[T];
      Sizes.Deduped += Bytes;
    }
  return Sizes;
}

uint64_t twpp::dbbTraceBytes(const DbbWpp &Wpp) {
  uint64_t Bytes = 0;
  for (const DbbFunctionTable &Table : Wpp.Functions)
    for (const std::vector<BlockId> &TraceString : Table.TraceStrings)
      Bytes += pathTraceBytes(TraceString);
  return Bytes;
}

uint64_t twpp::twppTraceBytes(const TwppWpp &Wpp) {
  uint64_t Bytes = 0;
  for (const TwppFunctionTable &Table : Wpp.Functions)
    for (const TwppTrace &TraceString : Table.TraceStrings)
      Bytes += twppTraceBytes(TraceString);
  return Bytes;
}

OwppSizes twpp::measureOwpp(const PartitionedWpp &Wpp) {
  OwppSizes Sizes;
  Sizes.DcgBytes = encodeDcg(Wpp.Dcg).size();
  Sizes.TraceBytes = partitionTraceBytes(Wpp).Owpp;
  return Sizes;
}

StageSizes twpp::measureStages(const PartitionedWpp &Partitioned,
                               const DbbWpp &Dbb, const TwppWpp &Twpp) {
  StageSizes Sizes;
  PartitionTraceBytes Pool = partitionTraceBytes(Partitioned);
  Sizes.OwppTraceBytes = Pool.Owpp;
  Sizes.DedupedTraceBytes = Pool.Deduped;
  Sizes.DbbTraceBytes = dbbTraceBytes(Dbb);
  for (const DbbFunctionTable &Table : Dbb.Functions)
    for (const DbbDictionary &Dict : Table.Dictionaries)
      Sizes.DictionaryBytes += dictionaryBytes(Dict);
  Sizes.TwppTraceBytes = twppTraceBytes(Twpp);

  Sizes.CompactedDcgBytes = lzwCompress(encodeDcg(Twpp.Dcg)).size();
  return Sizes;
}
