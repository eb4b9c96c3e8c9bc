//===- ingest/Wire.h - twpp-wire-v1 framed trace protocol ------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `twpp-wire-v1` binary wire protocol carrying trace event streams
/// from instrumented producers to the ingestion frontend. Every frame is
///
///   fixed32 magic ("TWPW")  fixed32 version
///   fixed32 producerId      fixed64 sequence
///   fixed32 payloadLength   fixed32 crc32(header prefix + payload)
///   payload bytes
///
/// — the same framing discipline as the checkpoint journal (wpp/Journal.h):
/// a fixed magic to resynchronize on, fixed-width lengths, and a CRC so
/// damage is detected, not decoded. The CRC covers the 24 header bytes
/// before it as well as the payload: producerId and sequence are inputs
/// to sequencing, so a flipped bit there must read as a corrupt frame,
/// not as a plausible frame from the far future. Sequence numbers are
/// per producer, start at 0 (the Hello frame), and increase by one per
/// frame, which is what gap/duplicate/reorder detection keys on.
///
/// The payload's first byte selects the frame kind:
///
///   Hello  (0): varuint functionCount — opens the stream.
///   Events (1): varuint count, then count events, each encoded as one
///               varuint `tag | id << 2` (tag 0 Enter, 1 Block, 2 Exit;
///               Exit carries id 0).
///   Bye    (2): varuint totalEvents — closes the stream; the receiver
///               cross-checks the declared count against what it applied
///               so silent loss is impossible.
///
/// FrameDecoder is the receive side: an incremental decoder that accepts
/// arbitrary byte chunks (frames routinely straddle read-buffer edges),
/// validates framing and CRC, and — on any damage — resynchronizes by
/// scanning byte-by-byte for the next magic, accounting every skipped
/// byte. Damage never makes it fail; it only costs the damaged frames.
/// docs/FORMATS.md specifies the protocol.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_INGEST_WIRE_H
#define TWPP_INGEST_WIRE_H

#include "support/ByteStream.h"
#include "trace/Events.h"

#include <cstdint>
#include <vector>

namespace twpp::ingest {

/// "TWPW", little-endian (the journal is "TWPJ", archives are "TWPP").
inline constexpr uint32_t WireMagic = 0x57505754;
inline constexpr uint32_t WireVersion = 1;
/// magic + version + producerId + sequence + payloadLength + crc.
inline constexpr size_t WireHeaderSize = 4 + 4 + 4 + 8 + 4 + 4;
/// Upper bound a decoder accepts for payloadLength. A corrupt length
/// field beyond this is treated as damage (resync) instead of making the
/// receiver wait for — or allocate — gigabytes that will never arrive.
inline constexpr uint32_t WireMaxPayload = 1u << 20;

/// Payload kind selector (first payload byte).
enum class WireFrameKind : uint8_t { Hello = 0, Events = 1, Bye = 2 };

/// One decoded frame: header fields plus raw payload bytes.
struct WireFrame {
  uint32_t ProducerId = 0;
  uint64_t Sequence = 0;
  std::vector<uint8_t> Payload;
};

/// One decoded payload, whatever the kind.
struct WirePayload {
  WireFrameKind Kind = WireFrameKind::Hello;
  /// Hello: the producer's function universe size.
  uint32_t FunctionCount = 0;
  /// Events: the batch, decoded and structurally valid (tag in range).
  std::vector<TraceEvent> Events;
  /// Bye: total events the producer claims to have sent.
  uint64_t TotalEvents = 0;
};

/// Builds the payload bytes of a Hello frame.
std::vector<uint8_t> encodeHelloPayload(uint32_t FunctionCount);

/// Builds the payload bytes of an Events frame over [Begin, End).
std::vector<uint8_t> encodeEventsPayload(const TraceEvent *Begin,
                                         const TraceEvent *End);

/// Builds the payload bytes of a Bye frame.
std::vector<uint8_t> encodeByePayload(uint64_t TotalEvents);

/// Decodes a frame payload. \returns false on a malformed payload
/// (unknown kind byte, bad varint, truncated batch, trailing bytes) —
/// possible despite the CRC when the *producer* is buggy or malicious,
/// so the receiver treats it as accounted damage, never trusts it.
/// Every field of \p Out is reset first; Out.Events keeps its capacity,
/// so decoding a stream into one WirePayload reuses the batch buffer.
bool decodeWirePayload(ByteSpan Payload, WirePayload &Out);

/// Appends one complete framed record to \p Out.
void appendWireFrame(std::vector<uint8_t> &Out, uint32_t ProducerId,
                     uint64_t Sequence, const std::vector<uint8_t> &Payload);

/// Incremental frame decoder with byte-resync. Feed it chunks as they
/// arrive off the socket; pull frames until it reports NeedMore.
class FrameDecoder {
public:
  /// Cumulative damage/progress accounting (mirrored into ingest.*
  /// counters by the server).
  struct Stats {
    uint64_t Frames = 0;        ///< Valid frames decoded.
    uint64_t FrameBytes = 0;    ///< Bytes consumed by valid frames.
    uint64_t CorruptFrames = 0; ///< Plausible headers failing CRC.
    uint64_t ResyncBytes = 0;   ///< Bytes skipped scanning for a magic.
  };

  /// Appends \p Size bytes to the pending buffer.
  void feed(const uint8_t *Data, size_t Size);

  /// Marks end of input: a pending partial frame at the tail can never
  /// complete, so next() stops waiting for it and resyncs past it.
  void finish() { Finished = true; }

  /// Extracts the next valid frame, skipping damage. \returns false when
  /// more input is needed (or, after finish(), when the buffer is
  /// exhausted).
  bool next(WireFrame &Out);

  const Stats &stats() const { return Counts; }

  /// Bytes currently buffered and not yet consumed.
  size_t pendingBytes() const { return Buffer.size() - Pos; }

private:
  std::vector<uint8_t> Buffer;
  size_t Pos = 0;
  bool Finished = false;
  Stats Counts;
};

} // namespace twpp::ingest

#endif // TWPP_INGEST_WIRE_H
