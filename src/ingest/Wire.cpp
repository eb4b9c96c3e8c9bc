//===- ingest/Wire.cpp - twpp-wire-v1 framed trace protocol ---------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "ingest/Wire.h"

#include "support/ByteStream.h"
#include "support/Crc32.h"

using namespace twpp;
using namespace twpp::ingest;

namespace {

/// Event tags inside an Events payload. On-wire values — never renumber.
constexpr uint64_t TagEnter = 0;
constexpr uint64_t TagBlock = 1;
constexpr uint64_t TagExit = 2;

} // namespace

std::vector<uint8_t> ingest::encodeHelloPayload(uint32_t FunctionCount) {
  ByteWriter W;
  W.writeByte(static_cast<uint8_t>(WireFrameKind::Hello));
  W.writeVarUint(FunctionCount);
  return W.take();
}

std::vector<uint8_t> ingest::encodeEventsPayload(const TraceEvent *Begin,
                                                 const TraceEvent *End) {
  ByteWriter W;
  W.writeByte(static_cast<uint8_t>(WireFrameKind::Events));
  W.writeVarUint(static_cast<uint64_t>(End - Begin));
  for (const TraceEvent *E = Begin; E != End; ++E) {
    switch (E->EventKind) {
    case TraceEvent::Kind::Enter:
      W.writeVarUint(TagEnter | (static_cast<uint64_t>(E->Id) << 2));
      break;
    case TraceEvent::Kind::Block:
      W.writeVarUint(TagBlock | (static_cast<uint64_t>(E->Id) << 2));
      break;
    case TraceEvent::Kind::Exit:
      W.writeVarUint(TagExit);
      break;
    }
  }
  return W.take();
}

std::vector<uint8_t> ingest::encodeByePayload(uint64_t TotalEvents) {
  ByteWriter W;
  W.writeByte(static_cast<uint8_t>(WireFrameKind::Bye));
  W.writeVarUint(TotalEvents);
  return W.take();
}

bool ingest::decodeWirePayload(ByteSpan Payload, WirePayload &Out) {
  // Reset field by field: Out.Events keeps its capacity, so a caller that
  // decodes every frame into one WirePayload allocates the batch once.
  Out.Kind = WireFrameKind::Hello;
  Out.FunctionCount = 0;
  Out.Events.clear();
  Out.TotalEvents = 0;
  ByteReader R(Payload);
  uint8_t KindByte = R.readByte();
  if (R.hasError())
    return false;
  switch (KindByte) {
  case static_cast<uint8_t>(WireFrameKind::Hello): {
    Out.Kind = WireFrameKind::Hello;
    uint64_t Count = R.readVarUint();
    if (R.hasError() || Count > UINT32_MAX)
      return false;
    Out.FunctionCount = static_cast<uint32_t>(Count);
    break;
  }
  case static_cast<uint8_t>(WireFrameKind::Events): {
    Out.Kind = WireFrameKind::Events;
    uint64_t Count = R.readVarUint();
    // A CRC-valid but absurd count (more events than bytes) is producer
    // damage; reject before reserving.
    if (R.hasError() || Count > Payload.size())
      return false;
    Out.Events.reserve(static_cast<size_t>(Count));
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t Tagged = R.readVarUint();
      if (R.hasError())
        return false;
      uint64_t Tag = Tagged & 3;
      uint64_t Id = Tagged >> 2;
      if (Id > UINT32_MAX)
        return false;
      switch (Tag) {
      case TagEnter:
        Out.Events.push_back(TraceEvent::enter(static_cast<uint32_t>(Id)));
        break;
      case TagBlock:
        Out.Events.push_back(TraceEvent::block(static_cast<uint32_t>(Id)));
        break;
      case TagExit:
        if (Id != 0)
          return false;
        Out.Events.push_back(TraceEvent::exit());
        break;
      default:
        return false;
      }
    }
    break;
  }
  case static_cast<uint8_t>(WireFrameKind::Bye): {
    Out.Kind = WireFrameKind::Bye;
    Out.TotalEvents = R.readVarUint();
    if (R.hasError())
      return false;
    break;
  }
  default:
    return false;
  }
  return R.atEnd();
}

void ingest::appendWireFrame(std::vector<uint8_t> &Out, uint32_t ProducerId,
                             uint64_t Sequence,
                             const std::vector<uint8_t> &Payload) {
  ByteWriter W;
  W.writeFixed32(WireMagic);
  W.writeFixed32(WireVersion);
  W.writeFixed32(ProducerId);
  W.writeFixed64(Sequence);
  W.writeFixed32(static_cast<uint32_t>(Payload.size()));
  std::vector<uint8_t> Header = W.take();
  // The CRC covers the header prefix as well as the payload: a flipped
  // bit in producerId or sequence would otherwise pass every check and
  // poison sequencing with a phantom 2^40-sized gap.
  uint32_t Crc = crc32Update(crc32Init(), Header.data(), Header.size());
  Crc = crc32Final(crc32Update(Crc, Payload.data(), Payload.size()));
  ByteWriter CrcW;
  CrcW.writeFixed32(Crc);
  std::vector<uint8_t> CrcBytes = CrcW.take();
  Out.insert(Out.end(), Header.begin(), Header.end());
  Out.insert(Out.end(), CrcBytes.begin(), CrcBytes.end());
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

void FrameDecoder::feed(const uint8_t *Data, size_t Size) {
  // Compact before growing: once the cursor has moved past consumed
  // frames, their bytes are dead weight the next memmove-free append
  // would keep copying around.
  if (Pos > 0 && (Pos >= 4096 || Pos == Buffer.size())) {
    Buffer.erase(Buffer.begin(), Buffer.begin() + static_cast<long>(Pos));
    Pos = 0;
  }
  Buffer.insert(Buffer.end(), Data, Data + Size);
}

bool FrameDecoder::next(WireFrame &Out) {
  while (true) {
    size_t Avail = Buffer.size() - Pos;
    if (Avail < WireHeaderSize) {
      // Could still be the prefix of a valid header; wait for more bytes
      // unless the stream already ended, in which case the tail is
      // garbage by definition.
      if (!Finished)
        return false;
      Counts.ResyncBytes += Avail;
      Pos = Buffer.size();
      return false;
    }
    if (le32At(Buffer, Pos) != WireMagic ||
        le32At(Buffer, Pos + 4) != WireVersion) {
      // Not a frame boundary: resynchronize byte-by-byte so one damaged
      // region cannot hide the rest of the stream.
      ++Pos;
      ++Counts.ResyncBytes;
      continue;
    }
    uint32_t Length = le32At(Buffer, Pos + 20);
    if (Length > WireMaxPayload) {
      // Plausible header with an absurd length: damage. Skip the magic
      // byte and rescan rather than waiting for bytes that will never
      // come.
      ++Pos;
      ++Counts.ResyncBytes;
      continue;
    }
    if (Avail < WireHeaderSize + Length) {
      if (!Finished)
        return false; // Frame straddles the read edge; wait for the rest.
      // Torn tail: a truncated frame can never complete. Scan what is
      // left in case a later (duplicated/reordered) frame is intact.
      ++Pos;
      ++Counts.ResyncBytes;
      continue;
    }
    const uint8_t *Payload = Buffer.data() + Pos + WireHeaderSize;
    // CRC spans the header prefix (everything before the CRC field) plus
    // the payload, so corruption anywhere in the frame is caught —
    // including the producerId/sequence fields sequencing trusts.
    uint32_t Crc = crc32Update(crc32Init(), Buffer.data() + Pos, 24);
    Crc = crc32Final(crc32Update(Crc, Payload, Length));
    if (Crc != le32At(Buffer, Pos + 24)) {
      ++Counts.CorruptFrames;
      ++Pos;
      ++Counts.ResyncBytes;
      continue;
    }
    Out.ProducerId = le32At(Buffer, Pos + 8);
    Out.Sequence = le64At(Buffer, Pos + 12);
    Out.Payload.assign(Payload, Payload + Length);
    Pos += WireHeaderSize + Length;
    ++Counts.Frames;
    Counts.FrameBytes += WireHeaderSize + Length;
    return true;
  }
}
