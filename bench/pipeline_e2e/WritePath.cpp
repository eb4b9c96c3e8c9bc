//===- bench/pipeline_e2e/WritePath.cpp - The serial write chain ----------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "WritePath.h"

#include "ingest/Wire.h"
#include "support/Crc32.h"
#include "support/FileIO.h"
#include "support/LZW.h"
#include "trace/UncompactedFile.h"
#include "wpp/Archive.h"
#include "wpp/Twpp.h"

#include <algorithm>

using namespace twpp;
using namespace twpp::e2e;
using namespace twpp::ingest;

RawTrace e2e::runProfile(const WorkloadProfile &Profile, uint64_t Seed) {
  SyntheticProgram Program = generateProgram(Profile);
  Program.Profile.Seed += Seed;
  CollectingSink Sink(Profile.FunctionCount);
  runSyntheticProgram(Program, Sink);
  return Sink.take();
}

uint64_t e2e::hashEvents(const RawTrace &Trace) {
  uint64_t Hash = hashBytes(&Trace.FunctionCount, sizeof(Trace.FunctionCount));
  for (const TraceEvent &E : Trace.Events) {
    uint64_t Packed = (static_cast<uint64_t>(E.Id) << 2) |
                      static_cast<uint64_t>(E.EventKind);
    Hash = hashBytes(&Packed, sizeof(Packed), Hash);
  }
  return Hash;
}

std::vector<uint8_t> e2e::encodeWireStream(const RawTrace &Trace) {
  std::vector<uint8_t> Out;
  uint64_t Sequence = 0;
  appendWireFrame(Out, 0, Sequence++, encodeHelloPayload(Trace.FunctionCount));
  const TraceEvent *Begin = Trace.Events.data();
  const TraceEvent *End = Begin + Trace.Events.size();
  for (const TraceEvent *At = Begin; At != End;) {
    const TraceEvent *Next =
        At + std::min<size_t>(WireBatchEvents, static_cast<size_t>(End - At));
    appendWireFrame(Out, 0, Sequence++, encodeEventsPayload(At, Next));
    At = Next;
  }
  appendWireFrame(Out, 0, Sequence, encodeByePayload(Trace.Events.size()));
  return Out;
}

uint64_t e2e::owppBytes(const RawTrace &Trace) {
  return encodeUncompactedTrace(Trace).size();
}

bool e2e::decodeWireStream(const std::vector<uint8_t> &Wire, RawTrace &Trace,
                      uint64_t &Frames, uint64_t &FrameBytes) {
  constexpr size_t ChunkBytes = 64 * 1024;
  FrameDecoder Decoder;
  WireFrame Frame;
  WirePayload Payload;
  bool Ok = true, SawBye = false;
  uint64_t Declared = 0;
  auto Drain = [&] {
    while (Decoder.next(Frame)) {
      if (!decodeWirePayload(ByteSpan(Frame.Payload), Payload)) {
        Ok = false;
        continue;
      }
      switch (Payload.Kind) {
      case WireFrameKind::Hello:
        Trace.FunctionCount = Payload.FunctionCount;
        break;
      case WireFrameKind::Events:
        Trace.Events.insert(Trace.Events.end(), Payload.Events.begin(),
                            Payload.Events.end());
        break;
      case WireFrameKind::Bye:
        SawBye = true;
        Declared = Payload.TotalEvents;
        break;
      }
    }
  };
  for (size_t At = 0; At < Wire.size(); At += ChunkBytes) {
    Decoder.feed(Wire.data() + At, std::min(ChunkBytes, Wire.size() - At));
    Drain();
  }
  Decoder.finish();
  Drain();
  Frames = Decoder.stats().Frames;
  FrameBytes = Decoder.stats().FrameBytes;
  return Ok && SawBye && Declared == Trace.Events.size() &&
         Decoder.stats().CorruptFrames == 0 &&
         Decoder.stats().ResyncBytes == 0;
}

ChainResult e2e::runWriteChain(SpanRecorder &Rec, const std::string &Label,
                               const std::vector<uint8_t> &Wire,
                               const std::string &Path, ChainProbe *Probe) {
  ChainResult Result;
  bool Decoded = false;
  PartitionedWpp Partitioned;
  DbbWpp Dbb;
  TwppWpp Twpp;
  std::vector<uint8_t> Bytes;
  IoError Written;
  double Start = nowUs();
  {
    SpanScope Chain(Rec, "bench.chain", Label);
    RawTrace Trace;
    {
      SpanScope S(Rec, "ingest.wire_decode", Label);
      Decoded =
          decodeWireStream(Wire, Trace, Result.Frames, Result.FrameBytes);
      S.setCalls(Result.Frames);
    }
    Result.Events = Trace.Events.size();
    if (Probe)
      Probe->DecodedHash = hashEvents(Trace);
    {
      SpanScope S(Rec, "wpp.partition", Label);
      Partitioned = partitionWpp(Trace);
    }
    RawTrace().Events.swap(Trace.Events);
    {
      SpanScope S(Rec, "wpp.dbb", Label);
      Dbb = applyDbbCompaction(Partitioned);
    }
    {
      SpanScope S(Rec, "wpp.twpp", Label);
      Twpp = convertToTwpp(Dbb);
    }
    {
      SpanScope S(Rec, "wpp.archive_encode", Label);
      Bytes = encodeArchive(Twpp);
    }
    {
      SpanScope S(Rec, "support.archive_write", Label);
      Written = writeFileBytesAtomic(Path, Bytes);
    }
  }
  Result.WallMs = (nowUs() - Start) / 1000.0;

  Result.Ok = Decoded && Written.ok();
  Result.ArchiveBytes = Bytes.size();
  Result.ArchiveCrc = crc32(Bytes.data(), Bytes.size());
  if (Probe) {
    Probe->Stages = measureStages(Partitioned, Dbb, Twpp);
    std::vector<uint8_t> Dcg = encodeDcg(Twpp.Dcg);
    Probe->LzwBytesIn = Dcg.size();
    Probe->LzwBytesOut = lzwCompress(Dcg).size();
  }
  return Result;
}
